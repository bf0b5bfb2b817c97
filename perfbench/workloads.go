package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/netproto"
	"enki/internal/obs"
	"enki/internal/profile"
	"enki/internal/sched"
)

// traceSeed is the program's fixed trace seed. The benchmark's --seed
// only draws the household profiles, so the program sees nothing of it
// beyond the generated inputs.
const traceSeed = 1

// workload is one named input set. Every household is a
// netproto.Truthful over a profile drawn by profile.NewGenerator from
// the run's seed; the driver is a closed loop that settles one day at a
// time.
type workload struct {
	name       string
	households int
	// maxDays caps the timed days of one episode (0: no cap); the run
	// then sets up afresh. The cap bounds memory the program retains per
	// day and the city's workers=1 replay, and gives set-up time several
	// samples.
	maxDays int
	open    func(ctx context.Context, env *env, inst instrument) (episode, error)
	// retime re-runs each layer's public functions on one day's inputs
	// (traced run only).
	retime func(env *env, out dayOutcome, inst instrument, rt *retimer) error
}

// env is what every episode of one run shares.
type env struct {
	types []core.Type
	s     settlement
	nproc int
}

func newEnv(seed uint64, households int) (*env, error) {
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(seed))
	if err != nil {
		return nil, err
	}
	types := make([]core.Type, households)
	for i := range types {
		types[i] = gen.Draw().TypeWide()
	}
	return &env{types: types, s: paperSettlement(), nproc: runtime.NumCPU()}, nil
}

// instrument carries the traced run's wrappers; the zero value runs the
// program unwrapped.
type instrument struct {
	rec   *spanRecorder
	conns *connCounts
	slots []houseDay // per household, city only
}

func (i instrument) traced() bool { return i.rec != nil }

// dayOutcome is one settled day as the driver saw it.
type dayOutcome struct {
	day     int
	settled int
	dark    int // absent + substituted
	record  *netproto.DayRecord
	cluster *netproto.ClusterDayRecord
}

// episode is one set-up program instance settling consecutive days.
type episode interface {
	settle(ctx context.Context, day int) (dayOutcome, error)
	// finish runs the end-of-episode checks and returns the days they
	// failed. edge marks the run's first and last episodes, which hold
	// its first and last timed day.
	finish(ctx context.Context, outs []dayOutcome, edge bool) (map[int]bool, error)
	shardStatuses() []obs.ShardStatus
	workers() int
	close()
}

// replicaProbe is implemented by the replicated episode.
type replicaProbe interface {
	ledgerLen() int
	commitLag() uint64
	failovers() uint64
}

var workloads = map[string]*workload{
	"city": {
		name: "city", households: 25000, maxDays: 20,
		open: openCity, retime: retimeCity,
	},
	"neighborhood": {
		name: "neighborhood", households: 50, maxDays: 250,
		open: openNeighborhood, retime: retimeNeighborhood,
	},
	"replicated": {
		name: "replicated", households: 50, maxDays: 250,
		open: openReplicated, retime: retimeReplicated,
	},
}

// City workload: the in-process sharded cluster.
const (
	cityShards = 32
	cityBatch  = 64
)

type cityEpisode struct {
	env  *env
	c    *netproto.Cluster
	sink *ledgerSink
}

func cityOptions(env *env, workers int, sink *ledgerSink) []netproto.Option {
	return append(env.s.options(),
		netproto.WithShards(cityShards),
		netproto.WithWorkers(workers),
		netproto.WithCodec(netproto.CodecBinary),
		netproto.WithBatchSize(cityBatch),
		netproto.WithShardRecords(false),
		netproto.WithLedger(netproto.NewJournal(sink)),
	)
}

// startCity builds a cluster, enrolls every household and settles the
// untimed first day.
func startCity(ctx context.Context, env *env, workers int, sink *ledgerSink, slots []houseDay) (*netproto.Cluster, error) {
	c, err := netproto.StartCluster(ctx, cityOptions(env, workers, sink)...)
	if err != nil {
		return nil, err
	}
	for i, t := range env.types {
		var p netproto.Policy = &netproto.Truthful{Type: t}
		if slots != nil {
			p = &recordingPolicy{inner: p, slot: &slots[i]}
		}
		if err := c.Join(core.HouseholdID(i), p); err != nil {
			c.Close()
			return nil, err
		}
	}
	if _, err := c.ClusterDay(ctx, 0); err != nil {
		c.Close()
		return nil, fmt.Errorf("first day: %w", err)
	}
	return c, nil
}

func openCity(ctx context.Context, env *env, inst instrument) (episode, error) {
	sink := &ledgerSink{rec: inst.rec}
	c, err := startCity(ctx, env, env.nproc, sink, inst.slots)
	if err != nil {
		return nil, err
	}
	return &cityEpisode{env: env, c: c, sink: sink}, nil
}

func (e *cityEpisode) settle(ctx context.Context, day int) (dayOutcome, error) {
	rec, err := e.c.ClusterDay(ctx, day)
	if err != nil {
		return dayOutcome{day: day}, err
	}
	return dayOutcome{day: day, settled: rec.Settled,
		dark: rec.Absent + rec.Substituted, cluster: rec}, nil
}

// finish checks Theorem 1 on every day. On the run's first and last
// episode it also re-settles the days on a WithWorkers(1) cluster built
// from the same seed and requires every day's ClusterDayRecord JSON,
// the run's first and last timed day among them, to be byte-identical.
// Every day is replayed because each shard's scheduler stream carries
// over from day to day; capping episodes at maxDays bounds the replay.
func (e *cityEpisode) finish(ctx context.Context, outs []dayOutcome, edge bool) (map[int]bool, error) {
	bad := map[int]bool{}
	for _, o := range outs {
		if err := checkClusterDay(o.cluster, e.env.s); err != nil {
			bad[o.day] = true
		}
	}
	if len(outs) == 0 || !edge {
		return bad, nil
	}
	check := map[int]*netproto.ClusterDayRecord{}
	for _, o := range outs {
		check[o.day] = o.cluster
	}
	ref, err := startCity(ctx, e.env, 1, &ledgerSink{}, nil)
	if err != nil {
		return bad, fmt.Errorf("workers=1 replay: %w", err)
	}
	defer ref.Close()
	for d := 1; d <= outs[len(outs)-1].day; d++ {
		rec, err := ref.ClusterDay(ctx, d)
		if err != nil {
			return bad, fmt.Errorf("workers=1 replay day %d: %w", d, err)
		}
		got, ok := check[d]
		if !ok {
			continue
		}
		a, errA := json.Marshal(got)
		b, errB := json.Marshal(rec)
		if err := errors.Join(errA, errB); err != nil {
			return bad, err
		}
		if string(a) != string(b) {
			bad[d] = true
		}
	}
	return bad, nil
}

func (e *cityEpisode) shardStatuses() []obs.ShardStatus { return e.c.ShardStatuses() }
func (e *cityEpisode) workers() int                     { return e.env.nproc }
func (e *cityEpisode) close()                           { e.c.Close() }

// Center workloads: real sockets on 127.0.0.1, one Connect session per
// household.

// centerScheduler returns the WithScheduler option of a traced run: the
// same Greedy the center builds by default, wrapped to record a span.
func centerScheduler(env *env, inst instrument) []netproto.Option {
	if !inst.traced() {
		return nil
	}
	g := &sched.Greedy{Pricer: env.s.pricer, Rating: env.s.rating}
	return []netproto.Option{netproto.WithScheduler(&timedScheduler{inner: g, rec: inst.rec})}
}

// connectAll enrolls every household through dial (wrapped to count
// when traced).
func connectAll(ctx context.Context, env *env, inst instrument, addr string, dial netproto.DialFunc) ([]*netproto.Agent, error) {
	if inst.conns != nil {
		dial = countingDialer(dial, inst.conns)
	}
	agents := make([]*netproto.Agent, 0, len(env.types))
	for i, t := range env.types {
		a, err := netproto.Connect(ctx, addr, core.HouseholdID(i), &netproto.Truthful{Type: t}, netproto.WithDialer(dial))
		if err != nil {
			closeAgents(agents)
			return nil, fmt.Errorf("connect household %d: %w", i, err)
		}
		agents = append(agents, a)
	}
	return agents, nil
}

func closeAgents(agents []*netproto.Agent) {
	for _, a := range agents {
		a.Close()
	}
}

func centerOutcome(rec *netproto.DayRecord) dayOutcome {
	dark := len(rec.Absent)
	for _, s := range rec.Substituted {
		if s {
			dark++
		}
	}
	return dayOutcome{day: rec.Day, settled: len(rec.Reports), dark: dark, record: rec}
}

// checkRecords runs checkDayRecord on every center day.
func checkRecords(outs []dayOutcome, s settlement) map[int]bool {
	bad := map[int]bool{}
	for _, o := range outs {
		if o.record == nil || checkDayRecord(o.record, s) != nil {
			bad[o.day] = true
		}
	}
	return bad
}

type neighborhoodEpisode struct {
	env    *env
	c      *netproto.Center
	agents []*netproto.Agent
}

func openNeighborhood(ctx context.Context, env *env, inst instrument) (episode, error) {
	c, err := netproto.StartCenter("127.0.0.1:0", append(env.s.options(), centerScheduler(env, inst)...)...)
	if err != nil {
		return nil, err
	}
	agents, err := connectAll(ctx, env, inst, c.Addr(), tcpDialer(c.Addr()))
	if err != nil {
		c.Close()
		return nil, err
	}
	e := &neighborhoodEpisode{env: env, c: c, agents: agents}
	if err := c.WaitForAgentsContext(ctx, len(env.types)); err != nil {
		e.close()
		return nil, err
	}
	if _, err := c.RunDayContext(ctx, 0); err != nil {
		e.close()
		return nil, fmt.Errorf("first day: %w", err)
	}
	return e, nil
}

func (e *neighborhoodEpisode) settle(ctx context.Context, day int) (dayOutcome, error) {
	rec, err := e.c.RunDayContext(ctx, day)
	if err != nil {
		return dayOutcome{day: day}, err
	}
	return centerOutcome(rec), nil
}

func (e *neighborhoodEpisode) finish(_ context.Context, outs []dayOutcome, _ bool) (map[int]bool, error) {
	return checkRecords(outs, e.env.s), nil
}

func (e *neighborhoodEpisode) shardStatuses() []obs.ShardStatus { return e.c.ShardStatuses() }
func (e *neighborhoodEpisode) workers() int                     { return 1 }
func (e *neighborhoodEpisode) close() {
	closeAgents(e.agents)
	e.c.Close()
}

// replicaCount is the replicated workload's 2f+1.
const replicaCount = 3

type replicatedEpisode struct {
	env    *env
	rs     *netproto.ReplicaSet
	agents []*netproto.Agent
	sink   *ledgerSink
}

func openReplicated(ctx context.Context, env *env, inst instrument) (episode, error) {
	sink := &ledgerSink{rec: inst.rec}
	opts := append(env.s.options(), netproto.WithReplicas(replicaCount),
		netproto.WithLedger(netproto.NewJournal(sink)))
	rs, err := netproto.StartReplicaSet(ctx, append(opts, centerScheduler(env, inst)...)...)
	if err != nil {
		return nil, err
	}
	agents, err := connectAll(ctx, env, inst, rs.Addr(), rs.Dialer())
	if err != nil {
		rs.Close()
		return nil, err
	}
	e := &replicatedEpisode{env: env, rs: rs, agents: agents, sink: sink}
	if err := rs.WaitForAgentsContext(ctx, len(env.types)); err != nil {
		e.close()
		return nil, err
	}
	if _, err := rs.RunDayContext(ctx, 0); err != nil {
		e.close()
		return nil, fmt.Errorf("first day: %w", err)
	}
	return e, nil
}

func (e *replicatedEpisode) settle(ctx context.Context, day int) (dayOutcome, error) {
	rec, err := e.rs.RunDayContext(ctx, day)
	if err != nil {
		return dayOutcome{day: day}, err
	}
	return centerOutcome(rec), nil
}

// finish checks every day record, then requires byte-identical replica
// ledgers holding one audited entry per settled day, no failover and no
// uncommitted tail.
func (e *replicatedEpisode) finish(_ context.Context, outs []dayOutcome, _ bool) (map[int]bool, error) {
	bad := checkRecords(outs, e.env.s)
	ledgers := make([][]byte, replicaCount)
	for i := range ledgers {
		ledgers[i] = e.rs.ReplicaLedger(i)
	}
	audit, err := checkReplicaLedgers(ledgers)
	if err != nil {
		return bad, err
	}
	for d := range audit {
		bad[d] = true
	}
	if n := bytes.Count(ledgers[0], []byte{'\n'}); n != len(outs)+1 {
		return bad, fmt.Errorf("replica ledger holds %d entries, want %d settled days", n, len(outs)+1)
	}
	if f := e.failovers(); f != 0 {
		return bad, fmt.Errorf("%d failovers without a fault", f)
	}
	if lag := e.commitLag(); lag != 0 {
		return bad, fmt.Errorf("commit lag %d after the last day", lag)
	}
	return bad, nil
}

func (e *replicatedEpisode) shardStatuses() []obs.ShardStatus { return e.rs.ShardStatuses() }
func (e *replicatedEpisode) workers() int                     { return 1 }
func (e *replicatedEpisode) ledgerLen() int                   { return len(e.rs.ReplicaLedger(e.rs.Leader())) }
func (e *replicatedEpisode) failovers() uint64                { return e.rs.Failovers() }
func (e *replicatedEpisode) commitLag() uint64 {
	var lag uint64
	for _, r := range e.rs.ReplicaStatuses().Replicas {
		lag += r.CommitLag
	}
	return lag
}
func (e *replicatedEpisode) close() {
	closeAgents(e.agents)
	e.rs.Close()
}

func (e *cityEpisode) journaled() int64       { return e.sink.n.Load() }
func (e *replicatedEpisode) journaled() int64 { return e.sink.n.Load() }
