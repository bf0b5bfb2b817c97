package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"enki/internal/obs"
)

// maxProgramSpans bounds the program spans kept for the span file.
const maxProgramSpans = 300000

// tracedStats is one instrumented stretch: the program's tracer on,
// every extension point wrapped, each day re-timed after it returns.
type tracedStats struct {
	st    *stretch
	rec   *spanRecorder
	rt    *retimer
	tl    *tally
	conns *connCounts

	mallocs, gcs, ledgerBytes float64 // summed over the timed days only
	payMS, unattributedMS     []float64
	shardP50, shardMax        []float64
	straggler, busy           []float64
	replicaLedgerBytes        float64
	commitLag, failovers      uint64
	profiles                  [][]byte // one CPU profile per episode
	problems                  []string // re-timing faults, folded into st
}

// tracedStretch drives w for budget with tracing on. With profile set
// it also records a CPU profile of each episode's timed days; the
// benchmark's own work between days runs under the harness pprof label
// so the shares can leave it out.
func tracedStretch(ctx context.Context, w *workload, env *env, budget time.Duration, profile bool) *tracedStats {
	ts := &tracedStats{rec: &spanRecorder{}, tl: newTally(), conns: &connCounts{}}
	ts.rt = newRetimer(ts.rec)
	inst := instrument{rec: ts.rec, conns: ts.conns}
	if w.name == "city" {
		inst.slots = make([]houseDay, w.households)
	}

	var (
		snap0           obs.Snapshot
		m0, m1          runtime.MemStats
		journaled0      int64
		dayID, dayTrace string
		ledger0         int
		tracer          = obs.DefaultTracer()
	)
	harness := func(fn func()) {
		pprof.Do(ctx, pprof.Labels(harnessLabel, "harness"), func(context.Context) { fn() })
	}
	var prof *bytes.Buffer
	h := hooks{
		opened: func(ep episode) {
			if p, ok := ep.(replicaProbe); ok {
				ledger0 = p.ledgerLen()
			}
			if profile {
				prof = &bytes.Buffer{}
				if err := pprof.StartCPUProfile(prof); err != nil {
					ts.problems = append(ts.problems, fmt.Sprintf("cpu profile: %v", err))
					prof = nil
				}
			}
		},
		before: func(ep episode, day int) {
			harness(func() {
				tracer.Drain()
				snap0 = obs.Default().Snapshot()
				runtime.ReadMemStats(&m0)
				journaled0 = journaled(ep)
				dayTrace, dayID = obs.DeriveTraceID(traceSeed, uint64(day)), ts.rec.newID()
				ts.rec.enter(dayTrace, dayID)
			})
		},
		after: func(ep episode, out dayOutcome, start, end time.Time) {
			harness(func() {
				ts.rec.enter("", "")
				runtime.ReadMemStats(&m1)
				snap1 := obs.Default().Snapshot()
				ts.tl.add(snap0, snap1)
				ts.mallocs += float64(m1.Mallocs - m0.Mallocs)
				ts.gcs += float64(m1.NumGC - m0.NumGC)
				ts.ledgerBytes += float64(journaled(ep) - journaled0)
				ts.rec.add(spanDay, dayTrace, dayID, "", start, end)

				day := newTally()
				day.add(snap0, snap1)
				_, allocMS := day.hist(obs.MetricSchedAllocateLatencyMS)
				ts.programSpans(tracer.Drain(), ms(end.Sub(start)), allocMS, out.record != nil)
				ts.shards(ep.shardStatuses(), ep.workers(), ms(end.Sub(start)))
				if p, ok := ep.(replicaProbe); ok {
					ts.commitLag = max(ts.commitLag, p.commitLag())
				}
				if err := w.retime(env, out, inst, ts.rt); err != nil {
					ts.problems = append(ts.problems, fmt.Sprintf("day %d re-time: %v", out.day, err))
				}
			})
		},
		closing: func(ep episode) {
			if prof != nil {
				pprof.StopCPUProfile()
				ts.profiles = append(ts.profiles, prof.Bytes())
				prof = nil
			}
			if p, ok := ep.(replicaProbe); ok {
				ts.replicaLedgerBytes += float64(p.ledgerLen() - ledger0)
				ts.failovers += p.failovers()
			}
		},
	}

	tracer.Drain()
	tracer.Enable()
	ts.st = drive(ctx, driveConfig{w: w, env: env, inst: inst, budget: budget, minDays: 20, hooks: h})
	tracer.Disable()
	tracer.Drain()
	ts.st.problems = append(ts.st.problems, ts.problems...)
	if ts.rt.mismatches > 0 {
		ts.st.problem("%d bills differ from the re-run Eq. 7 payments", ts.rt.mismatches)
	}
	return ts
}

// journaled is the byte count the episode's ledger writer has seen.
func journaled(ep episode) int64 {
	if j, ok := ep.(interface{ journaled() int64 }); ok {
		return j.journaled()
	}
	return 0
}

// programSpans reads one day's program spans: the payment phase has no
// latency histogram, so its time comes from the netproto.phase span;
// the day's unattributed time is its wall time minus the phases, the
// allocation and the settlement.
func (ts *tracedStats) programSpans(spans []obs.Span, dayMS, allocMS float64, center bool) {
	var phases, settle, pay float64
	for _, s := range spans {
		d := ms(s.Duration())
		switch s.Name {
		case obs.SpanNetPhase:
			phases += d
			if spanLabel(s, obs.LabelPhase) == "payment" {
				pay += d
			}
		case obs.SpanNetSettle:
			settle += d
		}
	}
	ts.payMS = append(ts.payMS, pay)
	if center {
		ts.unattributedMS = append(ts.unattributedMS, dayMS-phases-allocMS-settle)
	}
	ts.rec.keepProgram(spans, maxProgramSpans)
}

func spanLabel(s obs.Span, key string) string {
	for i := 0; i+1 < len(s.Labels); i += 2 {
		if s.Labels[i] == key {
			return s.Labels[i+1]
		}
	}
	return ""
}

// shards reads the day's per-shard settle times from ShardStatuses.
func (ts *tracedStats) shards(statuses []obs.ShardStatus, workers int, dayMS float64) {
	if len(statuses) == 0 {
		return
	}
	times := make([]float64, len(statuses))
	var sum, hi float64
	for i, s := range statuses {
		times[i] = s.LastSettleMS
		sum += s.LastSettleMS
		hi = max(hi, s.LastSettleMS)
	}
	ts.shardP50 = append(ts.shardP50, median(times))
	ts.shardMax = append(ts.shardMax, hi)
	ts.straggler = append(ts.straggler, ratio(hi, sum/float64(len(times))))
	ts.busy = append(ts.busy, ratio(sum, float64(workers)*dayMS))
}

// tracedRun is the per-layer run: an untraced stretch for the tracing
// overhead's baseline, then an instrumented stretch with a CPU profile,
// and on replicated an instrumented neighborhood stretch with the same
// seed for replica.overhead_ms.
func tracedRun(ctx context.Context, w *workload, env *env, budget time.Duration, lm *layerMap, spanPath string, out io.Writer) (result, []string) {
	part := func(share float64) time.Duration { return time.Duration(share * float64(budget)) }
	// Shares of the budget's day time. The instrumented stretch re-times
	// every day after it returns, which takes up to twice the day
	// itself, so its share is smaller.
	plainShare, tracedShare := 0.3, 0.4
	if w.name == "replicated" {
		plainShare, tracedShare = 0.25, 0.35
	}
	plain := drive(ctx, driveConfig{w: w, env: env, budget: part(plainShare), minDays: 20})
	problems := append([]string(nil), plain.problems...)
	b := tracedStretch(ctx, w, env, part(tracedShare), true)
	problems = append(problems, b.st.problems...)
	attempted, failed := plain.attempted+b.st.attempted, plain.failed+b.st.failed

	var c *tracedStats
	if w.name == "replicated" {
		// The same households and seed, without the replica layer.
		c = tracedStretch(ctx, workloads["neighborhood"], env, part(0.25), false)
		problems = append(problems, c.st.problems...)
		attempted, failed = attempted+c.st.attempted, failed+c.st.failed
	}

	vals, err := layerMetrics(env, plain, b, c)
	if err != nil {
		problems = append(problems, err.Error())
	}
	n, err := b.rec.writeSpans(spanPath)
	if err != nil {
		problems = append(problems, fmt.Sprintf("span file: %v", err))
	}
	fmt.Fprintf(out, "# spans: %d written to %s\n", n, spanPath)
	fmt.Fprintf(out, "# untraced day_p50_ms %.4g (n=%d), traced %.4g (n=%d)\n",
		median(plain.dayMS), len(plain.dayMS), median(b.st.dayMS), len(b.st.dayMS))

	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(lm.PerLayer))
	for k := range lm.PerLayer {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		doc := lm.PerLayer[k]
		v, ok := vals[k]
		if !ok {
			problems = append(problems, "per-layer metric "+k+" was not measured")
		}
		res.Metrics[k] = metric{Value: v, Unit: doc.Unit}
		fmt.Fprintf(out, "%-40s %14.6g %-6s %s\n", k, v, doc.Unit, movesNote(doc))
	}
	return res, problems
}

// movesNote renders a per-layer metric's predicted effect.
func movesNote(d metricDoc) string {
	var parts []string
	keys := make([]string, 0, len(d.Moves))
	for k := range d.Moves {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s on %s", k, strings.Join(d.Moves[k], ",")))
	}
	s := "moves " + strings.Join(parts, "; ")
	if len(parts) == 0 {
		s = "moves nothing"
	}
	if len(d.NoMove) > 0 {
		s += "; no move on " + strings.Join(d.NoMove, ",")
	}
	return s
}

// layerMetrics computes every per-layer metric from the traced run.
func layerMetrics(env *env, plain *stretch, b, c *tracedStats) (map[string]float64, error) {
	days := float64(len(b.st.dayMS))
	settled := b.st.settled
	householdDays := float64(len(env.types)) * days
	rt := b.rt
	v := map[string]float64{}

	_, allocMS := b.tl.hist(obs.MetricSchedAllocateLatencyMS)
	v["sched.allocate_ms"] = ratio(allocMS, days)
	v["sched.deferred_share"] = ratio(b.tl.counter(obs.MetricSchedDeferredHouseholds), settled)
	v["mechanism.settle_ms"] = median(rt.mechMS)
	v["mechanism.settle_allocs_per_household"] = ratio(rt.mechAllocs, rt.households)
	v["ledger.ms"] = median(rt.ledgerMS)
	v["ledger.bytes_per_household"] = ratio(b.ledgerBytes, settled)
	v["wire.encode_ms"] = median(rt.encMS)
	v["wire.decode_ms"] = median(rt.decMS)
	v["wire.decode_allocs_per_msg"] = ratio(rt.decAllocs, rt.decMsgs)
	frames := b.tl.counter(obs.MetricNetFramesTotal, obs.LabelDirection, obs.DirectionSent)
	msgs := b.tl.counter(obs.MetricNetMessagesTotal, obs.LabelDirection, obs.DirectionSent)
	v["wire.frames_per_day"] = ratio(frames, days)
	v["wire.msgs_per_frame"] = ratio(msgs, frames)
	v["wire.bytes_per_msg"] = ratio(b.tl.counter(obs.MetricNetCodecBytesTotal, obs.LabelDirection, obs.DirectionSent), msgs)

	_, pref := b.tl.hist(obs.MetricNetPhaseLatencyMS, obs.LabelPhase, "preference")
	_, cons := b.tl.hist(obs.MetricNetPhaseLatencyMS, obs.LabelPhase, "consumption")
	var pay float64
	for _, p := range b.payMS {
		pay += p
	}
	v["session.phase_ms.preference"] = ratio(pref, days)
	v["session.phase_ms.consumption"] = ratio(cons, days)
	v["session.phase_ms.payment"] = ratio(pay, days)
	v["session.unattributed_ms"] = median(b.unattributedMS)
	v["session.syscalls_per_household"] = ratio(float64(b.conns.calls.Load()), householdDays)
	v["session.bytes_per_household"] = ratio(float64(b.conns.bytes.Load()), householdDays)
	v["session.retries"] = b.tl.counter(obs.MetricNetRetriesTotal)
	v["session.resumes"] = b.tl.counter(obs.MetricNetResumesTotal)
	v["session.timeouts"] = b.tl.counter(obs.MetricNetTimeoutsTotal)

	v["cluster.shard_ms_p50"] = median(b.shardP50)
	v["cluster.shard_ms_max"] = median(b.shardMax)
	v["cluster.straggler_ratio"] = median(b.straggler)
	v["cluster.busy_share"] = median(b.busy)

	if c != nil {
		v["replica.overhead_ms"] = median(b.st.dayMS) - median(c.st.dayMS)
	} else {
		v["replica.overhead_ms"] = 0
	}
	v["replica.roundtrip_ms"] = median(rt.rttMS)
	v["replica.ledger_bytes_per_day"] = ratio(b.replicaLedgerBytes, days)
	v["replica.commit_lag"] = float64(b.commitLag)
	v["replica.failovers"] = float64(b.failovers)

	var samples []cpuSample
	for _, p := range b.profiles {
		s, err := parseCPUProfile(p)
		if err != nil {
			return v, err
		}
		samples = append(samples, s...)
	}
	for layer, share := range cpuShares(samples) {
		v["cpu_share."+layer] = share
	}

	v["runtime.allocs_per_household"] = ratio(b.mallocs, settled)
	v["runtime.gc_cycles_per_day"] = ratio(b.gcs, days)
	v["trace.overhead_ms"] = median(b.st.dayMS) - median(plain.dayMS)
	self := selfTimes(b.rec.spans)
	for _, layer := range selfLayers {
		v["self_ms."+layer] = ratio(ms(self[layer]), days)
	}
	// Availability counts every day of the run; retained memory comes
	// from the plain stretch, where the benchmark itself keeps nothing.
	all := []*stretch{plain, b.st}
	if c != nil {
		all = append(all, c.st)
	}
	var dark, enrolled, failed, attempted float64
	for _, st := range all {
		dark, enrolled = dark+st.dark, enrolled+st.enrolled
		failed, attempted = failed+float64(st.failed), attempted+float64(st.attempted)
	}
	v["dark_ratio"] = ratio(dark, enrolled)
	v["failed_day_ratio"] = ratio(failed, attempted)
	v["retained_kb_per_day"] = endToEnd(plain)["retained_kb_per_day"]
	return v, nil
}
