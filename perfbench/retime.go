package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/mechanism"
	"enki/internal/netproto"
	"enki/internal/obs"
	"enki/internal/pricing"
	"enki/internal/replica"
	"enki/internal/sched"
)

// retimer accumulates the traced run's re-timed layer calls. Each day's
// calls run after the day returned, outside its timing, on the day's own
// inputs, on one goroutine.
type retimer struct {
	rec     *spanRecorder
	traceID string
	root    string // the day's bench.retime span ID

	mechMS, ledgerMS, encMS, decMS, rttMS      []float64
	mechAllocs, decAllocs, decMsgs, households float64
	mismatches                                 int

	journal *netproto.Journal // discarding journal for the ledger re-run
}

func newRetimer(rec *spanRecorder) *retimer {
	return &retimer{rec: rec, journal: netproto.NewJournal(io.Discard)}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// timed runs fn, records its span under the day's bench.retime span,
// and returns how long it took.
func (r *retimer) timed(name string, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	r.rec.add(name, r.traceID, r.rec.newID(), r.root, start, end)
	return ms(end.Sub(start)), err
}

// settleInputs is one neighborhood's day as the mechanism sees it.
type settleInputs struct {
	traceID     string
	day         int
	reports     []core.Report
	assigned    []core.Interval
	consumed    []core.Interval
	substituted []bool
}

// settleOutputs is the Eq. 4–7 chain's result for one neighborhood.
type settleOutputs struct {
	predicted, flex, defect, psi, payments []float64
	cost, peak                             float64
}

// settleChain runs FlexibilityScores → ActualFlexibilities →
// DefectionScores → SocialCostScores → cost → Payments, as every
// settlement path does.
func settleChain(s settlement, in settleInputs) (settleOutputs, error) {
	prefs := make([]core.Preference, len(in.reports))
	for i, r := range in.reports {
		prefs[i] = r.Pref
	}
	var out settleOutputs
	out.predicted = mechanism.FlexibilityScores(prefs)
	out.flex = mechanism.ActualFlexibilities(out.predicted, in.assigned, in.consumed)
	for i, sub := range in.substituted {
		if sub {
			out.flex[i] = 0
		}
	}
	out.defect = mechanism.DefectionScores(s.pricer, s.rating, in.assigned, in.consumed)
	psi, err := mechanism.SocialCostScores(out.flex, out.defect, s.mech.K)
	if err != nil {
		return out, err
	}
	out.psi = psi
	load := core.LoadOf(in.consumed, s.rating)
	out.cost = pricing.Cost(s.pricer, load)
	out.peak = load.Peak()
	out.payments, err = mechanism.Payments(psi, s.mech.Xi, out.cost)
	return out, err
}

// dayMessages rebuilds the protocol messages of one neighborhood's day,
// phase by phase: request, preference, allocation, consumption, payment.
func dayMessages(in settleInputs, out settleOutputs) [][]*netproto.Message {
	tc := &obs.TraceContext{TraceID: in.traceID}
	n := len(in.reports)
	phases := make([][]*netproto.Message, 5)
	for p := range phases {
		phases[p] = make([]*netproto.Message, n)
	}
	for i, r := range in.reports {
		pref, alloc, cons := r.Pref, in.assigned[i], in.consumed[i]
		phases[0][i] = &netproto.Message{Kind: netproto.KindRequest, ID: r.ID, Day: in.day, Trace: tc}
		phases[1][i] = &netproto.Message{Kind: netproto.KindPreference, ID: r.ID, Day: in.day, Pref: &pref, Trace: tc}
		phases[2][i] = &netproto.Message{Kind: netproto.KindAllocation, ID: r.ID, Day: in.day, Interval: &alloc, Trace: tc}
		phases[3][i] = &netproto.Message{Kind: netproto.KindConsumption, ID: r.ID, Day: in.day, Interval: &cons, Trace: tc}
		phases[4][i] = &netproto.Message{Kind: netproto.KindPayment, ID: r.ID, Day: in.day, Trace: tc,
			Payment: &netproto.PaymentDetail{
				Amount: out.payments[i], Flexibility: out.flex[i], Defection: out.defect[i],
				SocialCost: out.psi[i], TotalCost: out.cost, PeakLoad: out.peak,
			}}
	}
	return phases
}

// layerPlan says which layers a workload's day runs.
type layerPlan struct {
	sched  bool   // re-time the scheduler, with the cluster's per-shard streams
	ledger bool   // the day journals an audit-ledger entry
	codec  string // wire codec
	batch  int    // messages per frame
}

// clusterSeedSalt mirrors the cluster's per-shard scheduler stream
// derivation, so a re-timed shard allocates with the same kind of
// seeded tie-breaking.
const clusterSeedSalt = 0x636c7573

// retimeDay re-times the layers of one day over its neighborhoods (one
// per shard) and returns the chain's outputs per neighborhood.
func (r *retimer) retimeDay(env *env, day int, ins []settleInputs, plan layerPlan) ([]settleOutputs, error) {
	r.traceID = obs.DeriveTraceID(traceSeed, uint64(day))
	r.root = r.rec.newID()
	start := time.Now()
	defer func() { r.rec.add(spanRetime, r.traceID, r.root, "", start, time.Now()) }()
	for _, in := range ins {
		r.households += float64(len(in.reports))
	}

	if plan.sched {
		_, err := r.timed(spanSched, func() error {
			for s, in := range ins {
				g := &sched.Greedy{Pricer: env.s.pricer, Rating: env.s.rating,
					RNG: dist.New(traceSeed).Split(clusterSeedSalt, uint64(s))}
				if _, err := g.Allocate(in.reports); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("re-time sched: %w", err)
		}
	}

	outs := make([]settleOutputs, len(ins))
	m0 := mallocs()
	d, err := r.timed(spanMechanism, func() error {
		for i, in := range ins {
			var err error
			if outs[i], err = settleChain(env.s, in); err != nil {
				return err
			}
		}
		return nil
	})
	r.mechAllocs += float64(mallocs() - m0)
	if err != nil {
		return nil, fmt.Errorf("re-time mechanism: %w", err)
	}
	r.mechMS = append(r.mechMS, d)

	if plan.ledger {
		d, err := r.timed(spanLedger, func() error {
			for i, in := range ins {
				if err := r.journal.AppendValue(buildLedger(env.s, in, outs[i])); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("re-time ledger: %w", err)
		}
		r.ledgerMS = append(r.ledgerMS, d)
	}

	codec, ok := netproto.LookupCodec(plan.codec)
	if !ok {
		return nil, fmt.Errorf("unknown codec %q", plan.codec)
	}
	var phases [][]*netproto.Message
	for i, in := range ins {
		phases = append(phases, dayMessages(in, outs[i])...)
	}
	var frames [][]byte
	d, err = r.timed(spanWireEnc, func() error {
		for _, msgs := range phases {
			for lo := 0; lo < len(msgs); lo += plan.batch {
				frame, err := netproto.AppendBatch(nil, codec, msgs[lo:min(lo+plan.batch, len(msgs))])
				if err != nil {
					return err
				}
				frames = append(frames, frame)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("re-time encode: %w", err)
	}
	r.encMS = append(r.encMS, d)
	m0 = mallocs()
	var decoded int
	d, err = r.timed(spanWireDec, func() error {
		for _, f := range frames {
			msgs, err := netproto.DecodeBatch(f[4:])
			if err != nil {
				return err
			}
			decoded += len(msgs)
		}
		return nil
	})
	r.decAllocs += float64(mallocs() - m0)
	r.decMsgs += float64(decoded)
	if err != nil {
		return nil, fmt.Errorf("re-time decode: %w", err)
	}
	r.decMS = append(r.decMS, d)
	return outs, nil
}

// buildLedger is the day's audit entry as the program builds it.
func buildLedger(s settlement, in settleInputs, out settleOutputs) mechanism.LedgerEntry {
	return mechanism.BuildLedgerEntry(in.traceID, in.day, s.mech, s.rating, in.reports,
		in.assigned, in.consumed, in.substituted, out.predicted, out.flex, out.defect,
		out.psi, out.payments, out.cost, out.peak)
}

// retimeCity rebuilds each shard's day from what the households'
// policies saw (membership is sorted by ID and cut into contiguous
// blocks, as the cluster partitions it) and re-times it. It also
// requires every bill a household received to equal the recomputed
// payment.
func retimeCity(env *env, out dayOutcome, inst instrument, r *retimer) error {
	n := len(env.types)
	ins := make([]settleInputs, cityShards)
	for s := range ins {
		lo, hi := s*n/cityShards, (s+1)*n/cityShards
		in := settleInputs{traceID: obs.DeriveTraceID(traceSeed, uint64(out.day), uint64(s)), day: out.day}
		for i := lo; i < hi; i++ {
			slot := &inst.slots[i]
			in.reports = append(in.reports, core.Report{ID: core.HouseholdID(i), Pref: slot.pref})
			in.assigned = append(in.assigned, slot.alloc)
			in.consumed = append(in.consumed, slot.alloc) // a Truthful household follows its allocation
		}
		ins[s] = in
	}
	outs, err := r.retimeDay(env, out.day, ins,
		layerPlan{sched: true, ledger: true, codec: netproto.CodecBinary, batch: cityBatch})
	if err != nil {
		return err
	}
	for s, in := range ins {
		for i, rep := range in.reports {
			if inst.slots[rep.ID].pay.Amount != outs[s].payments[i] {
				r.mismatches++
			}
		}
	}
	return nil
}

// centerInputs is a center day's record as settlement inputs.
func centerInputs(rec *netproto.DayRecord) settleInputs {
	in := settleInputs{traceID: rec.TraceID, day: rec.Day, reports: rec.Reports, substituted: rec.Substituted}
	for i := range rec.Reports {
		in.assigned = append(in.assigned, rec.Assignments[i].Interval)
		in.consumed = append(in.consumed, rec.Consumptions[i].Interval)
	}
	return in
}

// retimeNeighborhood re-times a socket center day: the center's default
// JSON codec, one message per frame, no ledger. The scheduler was timed
// inside the day by the wrapped WithScheduler.
func retimeNeighborhood(env *env, out dayOutcome, _ instrument, r *retimer) error {
	_, err := r.retimeDay(env, out.day, []settleInputs{centerInputs(out.record)},
		layerPlan{codec: netproto.CodecJSON, batch: 1})
	return err
}

// retimeReplicated is retimeNeighborhood plus the ledger and one quorum
// round per replicated entry of the day.
func retimeReplicated(env *env, out dayOutcome, _ instrument, r *retimer) error {
	in := centerInputs(out.record)
	outs, err := r.retimeDay(env, out.day, []settleInputs{in},
		layerPlan{ledger: true, codec: netproto.CodecJSON, batch: 1})
	if err != nil {
		return err
	}
	entries, err := replicatedEntries(out.record, buildLedger(env.s, in, outs[0]))
	if err != nil {
		return err
	}
	d, err := r.timed(spanReplicaRTT, func() error { return quorumRounds(out.day, entries) })
	if err != nil {
		return fmt.Errorf("re-time replica: %w", err)
	}
	r.rttMS = append(r.rttMS, d)
	return nil
}

// replicatedEntry is one log entry a replicated day produces.
type replicatedEntry struct {
	kind, phase string
	data        json.RawMessage
}

// replicatedEntries rebuilds the day's three replicated entries with the
// program's payload shapes: the preference and consumption phase
// boundaries and the settled day with its ledger entry.
func replicatedEntries(rec *netproto.DayRecord, ledger mechanism.LedgerEntry) ([]replicatedEntry, error) {
	raw, err := json.Marshal(ledger)
	if err != nil {
		return nil, err
	}
	payloads := []struct {
		kind, phase string
		v           any
	}{
		{replica.KindPhase, "preference", struct {
			Reports []core.Report      `json:"reports"`
			Absent  []core.HouseholdID `json:"absent,omitempty"`
		}{rec.Reports, rec.Absent}},
		{replica.KindPhase, "consumption", struct {
			Consumptions []core.Consumption `json:"consumptions"`
			Substituted  []bool             `json:"substituted,omitempty"`
		}{rec.Consumptions, rec.Substituted}},
		{replica.KindDay, "", struct {
			Record *netproto.DayRecord `json:"record"`
			Ledger json.RawMessage     `json:"ledger,omitempty"`
		}{rec, raw}},
	}
	out := make([]replicatedEntry, len(payloads))
	for i, p := range payloads {
		data, err := json.Marshal(p.v)
		if err != nil {
			return nil, err
		}
		out[i] = replicatedEntry{kind: p.kind, phase: p.phase, data: data}
	}
	return out, nil
}

// quorumRounds replays the replica layer's work for a day's entries
// between a leader log and replicaCount-1 follower logs joined by
// in-memory pipes: Log.Append, one append round trip per follower,
// Log.CommitTo, one commit round trip per follower, every frame through
// replica.WriteMessage/ReadMessage. Starting and stopping the two
// in-memory followers is included; it costs microseconds.
func quorumRounds(day int, entries []replicatedEntry) error {
	leader := replica.NewLog()
	type peer struct {
		conn net.Conn
		log  *replica.Log
	}
	peers := make([]peer, replicaCount-1)
	var wg sync.WaitGroup
	for i := range peers {
		a, b := net.Pipe()
		peers[i] = peer{conn: a, log: replica.NewLog()}
		wg.Add(1)
		go func(conn net.Conn, log *replica.Log) {
			defer wg.Done()
			defer conn.Close()
			serveFollower(conn, log)
		}(b, peers[i].log)
	}
	defer func() {
		for _, p := range peers {
			p.conn.Close()
		}
		wg.Wait()
	}()
	call := func(p peer, m *replica.Message) error {
		if err := replica.WriteMessage(p.conn, m); err != nil {
			return err
		}
		reply, err := replica.ReadMessage(p.conn)
		if err != nil {
			return err
		}
		if !reply.OK {
			return fmt.Errorf("follower rejected %s: %s", m.Kind, reply.Reason)
		}
		return nil
	}
	for _, en := range entries {
		e := leader.Append(1, uint64(day), en.kind, en.phase, en.data)
		for _, p := range peers {
			if err := call(p, &replica.Message{Kind: replica.MsgAppend, Term: 1, Entry: &e}); err != nil {
				return err
			}
		}
		leader.CommitTo(e.Index)
		for _, p := range peers {
			if err := call(p, &replica.Message{Kind: replica.MsgCommit, Term: 1, Commit: e.Index}); err != nil {
				return err
			}
		}
	}
	return nil
}

// serveFollower answers append and commit frames until the pipe closes.
func serveFollower(conn net.Conn, log *replica.Log) {
	for {
		m, err := replica.ReadMessage(conn)
		if err != nil {
			return
		}
		reply := &replica.Message{Kind: replica.MsgAck, OK: true}
		switch m.Kind {
		case replica.MsgAppend:
			if m.Entry == nil {
				reply.OK, reply.Reason = false, "no entry"
			} else if err := log.Insert(*m.Entry); err != nil {
				reply.OK, reply.Reason = false, err.Error()
			}
		case replica.MsgCommit:
			log.CommitTo(m.Commit)
		default:
			reply.OK, reply.Reason = false, "unknown kind"
		}
		if err := replica.WriteMessage(conn, reply); err != nil {
			return
		}
	}
}
