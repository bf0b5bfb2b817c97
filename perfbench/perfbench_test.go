package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/netproto"
	"enki/internal/obs"
	"enki/internal/sched"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	v, beyond := nearestRank(seq(100), 0.9)
	if v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %g with %d beyond, want 90 with 10", v, beyond)
	}
	if _, beyond := nearestRank(seq(99), 0.9); beyond >= minBeyond {
		t.Fatalf("99 samples leave %d beyond p90; the rule needs 100 samples", beyond)
	}
	if n := minSamplesFor(0.9); n != 100 {
		t.Fatalf("minSamplesFor(0.9) = %d, want 100", n)
	}
	if n := minSamplesFor(0.99); n != 1000 {
		t.Fatalf("minSamplesFor(0.99) = %d, want 1000", n)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %g, want 2.5", m)
	}
}

func TestTallyDeltas(t *testing.T) {
	frames, msgs, lat := obs.MetricNetFramesTotal, obs.MetricNetMessagesTotal, obs.MetricNetPhaseLatencyMS
	sent := []string{obs.LabelDirection, obs.DirectionSent}
	reg := obs.NewRegistry()
	reg.Counter(frames, sent...).Add(5)
	reg.Counter(msgs, sent...).Add(100)
	h := reg.Histogram(lat, obs.LatencyBucketsMS, obs.LabelPhase, "preference")
	h.Observe(2)
	before := reg.Snapshot()

	reg.Counter(frames, sent...).Add(3)
	reg.Counter(frames, obs.LabelDirection, obs.DirectionReceived).Add(7)
	reg.Counter(msgs, sent...).Add(100)
	h.Observe(1.5)
	h.Observe(0.5)
	reg.Histogram(lat, obs.LatencyBucketsMS, obs.LabelPhase, "consumption").Observe(9)
	after := reg.Snapshot()

	tl := newTally()
	tl.add(before, after)
	tl.add(after, after) // an empty interval adds nothing
	if got := tl.counter(frames, sent...); got != 3 {
		t.Errorf("sent delta = %g, want 3", got)
	}
	if got := tl.counter(frames); got != 10 {
		t.Errorf("family delta = %g, want 10", got)
	}
	if !seriesMatches(obs.MetricNetFramesTotal, obs.MetricNetFramesTotal, nil) ||
		seriesMatches(obs.MetricNetFramesTotal+"_x", obs.MetricNetFramesTotal, nil) {
		t.Error("series family matching is off")
	}
	if n, s := tl.hist(lat, obs.LabelPhase, "preference"); n != 2 || s != 2 {
		t.Errorf("preference delta = %g obs summing %g, want 2 summing 2", n, s)
	}
	if n, s := tl.hist(lat); n != 3 || s != 11 {
		t.Errorf("family delta = %g obs summing %g, want 3 summing 11", n, s)
	}
}

func TestRatioBases(t *testing.T) {
	if ratio(5, 0) != 0 {
		t.Fatal("a ratio over an empty base must read 0")
	}
	st := &stretch{
		dayMS: seq(100), setupS: []float64{0.3, 0.1, 0.2},
		attempted: 101, failed: 1,
		enrolled: 101 * 50, settled: 100 * 50, dark: 50 + 25,
		dayNS: int64(2 * time.Second), allocBytes: 10 * 1024 * 5000,
		retainedBytes: 200 * 1024, retainedDays: 100,
	}
	v := endToEnd(st)
	want := map[string]float64{
		"households_per_s":       2500,        // settled / timed seconds
		"setup_s":                0.2,         // median of set-ups
		"alloc_kb_per_household": 10,          // KiB / settled
		"dark_ratio":             75.0 / 5050, // base: enrolled household-days
		"failed_day_ratio":       1.0 / 101,   // base: days attempted
		"retained_kb_per_day":    2,           // base: timed days
		"day_p50_ms":             50.5,
		"day_p90_ms":             90,
	}
	for k, w := range want {
		if math.Abs(v[k]-w) > 1e-12 {
			t.Errorf("%s = %g, want %g", k, v[k], w)
		}
	}
}

func TestCPUSharesSumToAtMostOne(t *testing.T) {
	samples := []cpuSample{
		{stack: []string{"runtime.mallocgc", "enki/internal/obs.metricKey", "enki/internal/netproto.observeBatch"}, count: 3},
		{stack: []string{"internal/runtime/syscall.Syscall6", "syscall.write", "enki/internal/netproto.WriteBatch"}, count: 2},
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, count: 1},
		{stack: []string{"enki/internal/pricing.Cost", "enki/internal/mechanism.DefectionScores"}, count: 1},
		{stack: []string{"runtime.futex", "runtime.findRunnable"}, count: 2},
		{stack: []string{"enki/internal/sched.(*Greedy).AllocateInto"}, count: 5, harness: true},
	}
	got := cpuShares(samples)
	want := map[string]float64{"obs": 3.0 / 9, "syscall": 2.0 / 9, "runtime.gc": 1.0 / 9, "mechanism": 1.0 / 9, "sched": 0}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += got[l]
	}
	if sum > 1+1e-12 {
		t.Fatalf("shares sum to %g", sum)
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("cpu_share.%s = %g, want %g", k, got[k], w)
		}
	}
}

func TestParseRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin := func(d time.Duration) {
		x := 0
		for end := time.Now().Add(d); time.Now().Before(end); x++ {
			_ = math.Sqrt(float64(x))
		}
	}
	spin(150 * time.Millisecond)
	pprof.Do(context.Background(), pprof.Labels(harnessLabel, "harness"), func(context.Context) {
		spin(150 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var harness, plain int64
	for _, s := range samples {
		if len(s.stack) == 0 {
			t.Fatal("sample without a stack")
		}
		if s.harness {
			harness += s.count
		} else {
			plain += s.count
		}
	}
	if harness == 0 || plain == 0 {
		t.Fatalf("want labelled and unlabelled samples, got %d and %d", harness, plain)
	}
	sum := 0.0
	for _, v := range cpuShares(samples) {
		sum += v
	}
	if sum > 1+1e-12 {
		t.Fatalf("shares sum to %g", sum)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []benchSpan{
		{Name: spanDay, SpanID: "d", StartNS: 0, EndNS: 10 * ms},
		{Name: spanSched, SpanID: "s", ParentID: "d", StartNS: 1 * ms, EndNS: 3 * ms},
		{Name: spanLedgerW, SpanID: "l", ParentID: "d", StartNS: 2 * ms, EndNS: 4 * ms},  // overlaps sched
		{Name: spanLedgerW, SpanID: "x", ParentID: "d", StartNS: 9 * ms, EndNS: 12 * ms}, // runs past the parent
	}
	got := selfTimes(spans)
	if got["day"] != 6*time.Millisecond {
		t.Errorf("day self time %v, want 6ms (10 - union of 1..4 and 9..10)", got["day"])
	}
	if got["sched"] != 2*time.Millisecond || got["ledger"] != 5*time.Millisecond {
		t.Errorf("sched %v ledger %v, want 2ms and 5ms", got["sched"], got["ledger"])
	}
}

// settledRecord builds a genuine center day record for the checks.
func settledRecord(t *testing.T) *netproto.DayRecord {
	t.Helper()
	env, err := newEnv(7, 30)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]core.Report, len(env.types))
	for i, ty := range env.types {
		reports[i] = core.Report{ID: core.HouseholdID(i), Pref: ty.True}
	}
	g := &sched.Greedy{Pricer: env.s.pricer, Rating: env.s.rating}
	assignments, err := g.Allocate(reports)
	if err != nil {
		t.Fatal(err)
	}
	in := settleInputs{traceID: "t", day: 3, reports: reports}
	cons := make([]core.Consumption, len(reports))
	for i, a := range assignments {
		in.assigned = append(in.assigned, a.Interval)
		in.consumed = append(in.consumed, a.Interval)
		cons[i] = core.Consumption{ID: a.ID, Interval: a.Interval}
	}
	out, err := settleChain(env.s, in)
	if err != nil {
		t.Fatal(err)
	}
	return &netproto.DayRecord{Day: 3, TraceID: "t", Reports: reports, Assignments: assignments,
		Consumptions: cons, Payments: out.payments, Flexibility: out.flex, Defection: out.defect,
		SocialCost: out.psi, Cost: out.cost, Peak: out.peak}
}

func TestCheckRejectsTamperedDayRecord(t *testing.T) {
	s := paperSettlement()
	if err := checkDayRecord(settledRecord(t), s); err != nil {
		t.Fatalf("genuine record rejected: %v", err)
	}
	tamper := map[string]func(r *netproto.DayRecord){
		"payment moved between households": func(r *netproto.DayRecord) {
			r.Payments[0] += 0.01
			r.Payments[1] -= 0.01 // Σp unchanged: Theorem 1 alone would pass
		},
		"flexibility": func(r *netproto.DayRecord) { r.Flexibility[2] *= 2 },
		"cost":        func(r *netproto.DayRecord) { r.Cost++ },
		"consumption": func(r *netproto.DayRecord) { r.Consumptions[0].Interval = r.Consumptions[0].Interval.Shift(1) },
		"short slice": func(r *netproto.DayRecord) { r.SocialCost = r.SocialCost[1:] },
	}
	for name, fn := range tamper {
		rec := settledRecord(t)
		fn(rec)
		if err := checkDayRecord(rec, s); err == nil {
			t.Errorf("%s: tampered record accepted", name)
		}
	}
}

func TestCheckReplicaLedgers(t *testing.T) {
	rec := settledRecord(t)
	in := centerInputs(rec)
	out, err := settleChain(paperSettlement(), in)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(buildLedger(paperSettlement(), in, out))
	if err != nil {
		t.Fatal(err)
	}
	good := append(line, '\n')
	if bad, err := checkReplicaLedgers([][]byte{good, good, good}); err != nil || len(bad) != 0 {
		t.Fatalf("identical audited ledgers: bad days %v, err %v", bad, err)
	}
	if _, err := checkReplicaLedgers([][]byte{good, good, append([]byte(nil), good[:len(good)-2]...)}); err == nil {
		t.Fatal("diverging replica ledgers accepted")
	}
	var e mechanism.LedgerEntry
	if err := json.Unmarshal(line, &e); err != nil {
		t.Fatal(err)
	}
	e.Households[0].Payment += 1
	forged, _ := json.Marshal(e)
	forged = append(forged, '\n')
	bad, err := checkReplicaLedgers([][]byte{forged, forged, forged})
	if err != nil || !bad[rec.Day] {
		t.Fatalf("forged entry: bad days %v, err %v; want day %d flagged", bad, err, rec.Day)
	}
}

// TestBenchmarkFileMatchesLayerMap keeps BENCHMARK.json, layers.json and
// the printed metric sets in step.
func TestBenchmarkFileMatchesLayerMap(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	lm, err := loadLayerMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(benchEndToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the run prints %d", len(bf.EndToEnd), len(benchEndToEnd))
	}
	for i, m := range bf.EndToEnd {
		if i < len(benchEndToEnd) && m.Name != benchEndToEnd[i] {
			t.Errorf("end_to_end[%d] = %s, printed %s", i, m.Name, benchEndToEnd[i])
		}
		if lm.EndToEnd[m.Name].Unit != m.Unit {
			t.Errorf("%s: unit %q, layers.json %q", m.Name, m.Unit, lm.EndToEnd[m.Name].Unit)
		}
	}
	if len(bf.PerLayer) != len(lm.PerLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, layers.json %d", len(bf.PerLayer), len(lm.PerLayer))
	}
	for _, m := range bf.PerLayer {
		doc, ok := lm.PerLayer[m.Name]
		if !ok || doc.Unit != m.Unit {
			t.Errorf("%s: unit %q, layers.json %q (present %v)", m.Name, m.Unit, doc.Unit, ok)
		}
	}
}

// TestNeighborhoodRuns is a short end-to-end pass of both run kinds.
func TestNeighborhoodRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("opens loopback sockets")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "neighborhood", "--seed", "3", "--seconds", "0.3",
			"--trace", trace, "--span-dir", t.TempDir()}, &out, &errOut)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v\n%s%s", trace, err, out.String(), errOut.String())
		}
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %s: exit %d, result %+v\n%s", trace, code, res, out.String())
		}
		want := len(benchEndToEnd)
		if trace == "1" {
			lm, _ := loadLayerMap()
			want = len(lm.PerLayer)
		}
		if len(res.Metrics) != want {
			t.Fatalf("trace %s: %d metrics, want %d", trace, len(res.Metrics), want)
		}
	}
}
