package mechanism

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"

	"enki/internal/core"
)

// checkAppendJSON is the differential oracle: AppendJSON must produce
// json.Marshal's bytes, or fail exactly when json.Marshal fails.
func checkAppendJSON(t *testing.T, e *LedgerEntry) {
	t.Helper()
	want, wantErr := json.Marshal(e)
	prefix := []byte("prefix")
	got, err := e.AppendJSON(prefix)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, wantErr)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendJSON clobbered the buffer it appended to: %q", got)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Errorf("AppendJSON error %q, json.Marshal error %q", err, wantErr)
		}
		if len(got) != len(prefix) {
			t.Errorf("failed AppendJSON left %d bytes of partial encoding", len(got)-len(prefix))
		}
		return
	}
	if got := got[len(prefix):]; !bytes.Equal(got, want) {
		t.Errorf("AppendJSON differs from json.Marshal:\n got: %s\nwant: %s", got, want)
	}
}

// ledgerHousehold returns a plausible row with every float set to f.
func ledgerHousehold(id int, f float64, substituted bool) LedgerHousehold {
	pref := core.MustPreference(17, 23, 2)
	return LedgerHousehold{
		ID:                   core.HouseholdID(id),
		Reported:             pref,
		Assigned:             core.Interval{Begin: 18, End: 20},
		Consumed:             core.Interval{Begin: 19, End: 21},
		DefermentSlots:       1,
		Substituted:          substituted,
		Defected:             true,
		PredictedFlexibility: f,
		Flexibility:          f,
		Defection:            f,
		SocialCost:           f,
		Payment:              f,
	}
}

func TestLedgerAppendJSONMatchesMarshal(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3,
		1e-7, -1e-7, 9.999e-7, 1e-6, -1e-6, 1.5e-5,
		1e20, 1e21, -1e21, 1.2345e22, 123456789012345678,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3, // subnormals
		math.MaxFloat64, -math.MaxFloat64,
		-42.75, -0.0049, // negative payments (a rebate)
		14, -3, 1e14, 999999999999999, 1e15, 4503599627370497, -9007199254740993,
	}
	for _, f := range floats {
		for _, sub := range []bool{false, true} {
			e := &LedgerEntry{
				Schema: LedgerSchemaVersion, TraceID: "0123abcd", Day: 3,
				K: f, Xi: f, Rating: f, Cost: f, Revenue: f, BudgetResidual: f, Peak: f,
				Households: []LedgerHousehold{ledgerHousehold(1, f, sub), ledgerHousehold(-2, -f, false)},
			}
			checkAppendJSON(t, e)
			// A defector's flexibility differs from its prediction.
			e.Households[0].Flexibility = f / 7
			checkAppendJSON(t, e)
		}
	}

	// nil and empty household lists encode differently (null vs []).
	checkAppendJSON(t, &LedgerEntry{Schema: 1})
	checkAppendJSON(t, &LedgerEntry{Schema: 1, Households: []LedgerHousehold{}})
	checkAppendJSON(t, nil)

	// Trace IDs needing encoding/json's escaping fall back to it.
	for _, id := range []string{
		"", "plain-trace", `quote"d`, `back\slash`, "a<b>c", "a&b", "tab\there",
		"nul\x00byte", "del\x7f", "naïve", "snow☃man", "line sep", "bad\xffutf8",
	} {
		checkAppendJSON(t, &LedgerEntry{Schema: 1, TraceID: id, Households: []LedgerHousehold{ledgerHousehold(7, 1.25, true)}})
	}
}

func TestLedgerAppendJSONNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkAppendJSON(t, &LedgerEntry{Schema: 1, Cost: f})
		checkAppendJSON(t, &LedgerEntry{Schema: 1, Households: []LedgerHousehold{
			ledgerHousehold(1, 2, false), ledgerHousehold(2, f, true),
		}})
		e := &LedgerEntry{Schema: 1, Households: []LedgerHousehold{ledgerHousehold(1, 2, false)}}
		e.Households[0].Payment = f
		if _, err := e.AppendJSON(nil); err == nil {
			t.Errorf("payment %v encoded without error", f)
		}
	}
}

// TestLedgerAppendJSONSettledDay compares a realistic settled day,
// degraded households included.
func TestLedgerAppendJSONSettledDay(t *testing.T) {
	checkAppendJSON(t, syntheticLedgerEntry(780, 1))
}

func FuzzLedgerAppendJSON(f *testing.F) {
	f.Add("trace", 1, math.Float64bits(0.5), math.Float64bits(-1e-7), math.Float64bits(1e21), int64(3), uint8(17), uint8(23), uint8(2), true)
	f.Add("<&>", -1, math.Float64bits(math.NaN()), uint64(1), uint64(0), int64(-5), uint8(0), uint8(24), uint8(0), false)
	f.Fuzz(func(t *testing.T, traceID string, day int, a, b, c uint64, id int64, begin, end, dur uint8, sub bool) {
		fa, fb, fc := math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)
		h := LedgerHousehold{
			ID:                   core.HouseholdID(id),
			Reported:             core.Preference{Window: core.Interval{Begin: int(begin), End: int(end)}, Duration: int(dur)},
			Assigned:             core.Interval{Begin: int(end), End: int(begin)},
			Consumed:             core.Interval{Begin: -int(begin), End: int(dur)},
			DefermentSlots:       int(dur),
			Substituted:          sub,
			Defected:             !sub,
			PredictedFlexibility: fa,
			Flexibility:          fb,
			Defection:            fc,
			SocialCost:           -fa,
			Payment:              fb * fc,
		}
		checkAppendJSON(t, &LedgerEntry{
			Schema: int(id), TraceID: traceID, Day: day,
			K: fa, Xi: fb, Rating: fc, Cost: fa + fb, Revenue: fb - fc, BudgetResidual: fa * fc, Peak: fc / 3,
			Households: []LedgerHousehold{h, h},
		})
	})
}

// syntheticLedgerEntry settles n random households through the Eq. 4–7
// chain, every tenth one consuming off its allocation and every
// twenty-third one substituted, and returns the day's audit entry.
func syntheticLedgerEntry(n int, seed uint64) *LedgerEntry {
	rng := rand.New(rand.NewPCG(seed, 0))
	reports := make([]core.Report, n)
	assigned := make([]core.Interval, n)
	consumed := make([]core.Interval, n)
	substituted := make([]bool, n)
	prefs := make([]core.Preference, n)
	for i := range reports {
		dur := 1 + rng.IntN(3)
		begin := rng.IntN(core.HoursPerDay - dur - 3)
		end := begin + dur + rng.IntN(4)
		prefs[i] = core.MustPreference(begin, end, dur)
		reports[i] = core.Report{ID: core.HouseholdID(i), Pref: prefs[i]}
		shift := rng.IntN(end - begin - dur + 1)
		assigned[i] = core.Interval{Begin: begin + shift, End: begin + shift + dur}
		consumed[i] = assigned[i]
		switch {
		case i%23 == 0:
			substituted[i] = true
			consumed[i] = DarkConsumption(prefs[i])
		case i%10 == 0:
			consumed[i] = core.Interval{Begin: begin, End: begin + dur}
		}
	}
	predicted := FlexibilityScores(prefs)
	flex := ActualFlexibilities(predicted, assigned, consumed)
	defect := make([]float64, n)
	for i := range defect {
		if substituted[i] {
			flex[i] = 0
		}
		if flex[i] == 0 {
			defect[i] = rng.Float64() * 3
		}
	}
	cfg := DefaultConfig()
	psi, _ := SocialCostScores(flex, defect, cfg.K)
	cost := 1000 * rng.Float64()
	payments, _ := Payments(psi, cfg.Xi, cost)
	e := BuildLedgerEntry("4f1c2a9e00d37b65", 12, cfg, 0.8, reports, assigned, consumed, substituted,
		predicted, flex, defect, psi, payments, cost, 96.5)
	return &e
}

// The city benchmark's shards hold about 780 households (25,000 in 32
// shards); the two benchmarks encode one such shard's entry.
const benchShardHouseholds = 780

func BenchmarkLedgerAppendJSON(b *testing.B) {
	e := syntheticLedgerEntry(benchShardHouseholds, 1)
	buf, _ := e.AppendJSON(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = e.AppendJSON(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLedgerMarshal(b *testing.B) {
	e := syntheticLedgerEntry(benchShardHouseholds, 1)
	buf, _ := json.Marshal(e)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(e); err != nil {
			b.Fatal(err)
		}
	}
}
