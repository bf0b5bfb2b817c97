package netproto

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/obs"
)

// TestMetricsScrapeAfterDayCycle is the observability acceptance test
// for the wire protocol: after one full day cycle the debug handler's
// /metrics page must expose the netproto, scheduler, and mechanism
// series — the same page cmd/enkid serves under -http.
func TestMetricsScrapeAfterDayCycle(t *testing.T) {
	obs.Default().Reset()
	c := newTestCenter(t)

	types := []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
		{True: core.MustPreference(19, 24, 3), ValuationFactor: 6},
	}
	for i, typ := range types {
		a, err := Dial(c.Addr(), core.HouseholdID(i), &Truthful{Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	if err := c.WaitForAgents(len(types), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunDay(1); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.DebugHandler(obs.Default()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, series := range []string{
		obs.MetricNetDaysTotal,
		obs.MetricNetMessagesTotal + `{direction="sent"}`,
		obs.MetricNetMessagesTotal + `{direction="received"}`,
		obs.MetricNetBytesTotal + `{direction="sent"}`,
		obs.MetricNetPhaseLatencyMS,
		obs.MetricSchedAllocateTotal + `{scheduler="enki-greedy"}`,
		obs.MetricSchedAllocateLatencyMS,
		obs.MetricMechSettlementsTotal,
		obs.MetricMechFlexibilityScore,
		obs.MetricMechPaymentDollars,
		obs.MetricMechBudgetResidual,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing series %s", series)
		}
	}

	// The day actually ran: the day counter and per-direction message
	// counters must be non-zero on the page, not just present.
	if !strings.Contains(body, obs.MetricNetDaysTotal+" 1") {
		t.Errorf("day counter not incremented:\n%s", body)
	}
	if strings.Contains(body, obs.MetricNetMessagesTotal+`{direction="sent"} 0`) {
		t.Error("sent-message counter still zero after a day cycle")
	}

	// /healthz responds.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz: status %d", hresp.StatusCode)
	}
}

// TestObserveBatchCachedHandles: counting a frame costs no allocation
// once its (direction, codec) handles are resolved, and the cached
// handles follow the registry across a Reset.
func TestObserveBatchCachedHandles(t *testing.T) {
	c, _ := LookupCodec(CodecBinary)
	reg := obs.Default()
	reg.Reset()
	observeBatch(obs.DirectionSent, c, 3, 100)
	if allocs := testing.AllocsPerRun(100, func() { observeBatch(obs.DirectionSent, c, 3, 100) }); allocs != 0 {
		t.Errorf("observeBatch allocates %.1f times per frame, want 0", allocs)
	}
	frames := func(direction string) uint64 {
		return reg.Counter(obs.MetricNetFramesTotal, obs.LabelDirection, direction).Value()
	}
	codecBytes := reg.Counter(obs.MetricNetCodecBytesTotal, obs.LabelCodec, CodecBinary, obs.LabelDirection, obs.DirectionSent).Value()
	const sent = 1 + 1 + 100 // the first frame, AllocsPerRun's warm-up call, its 100 runs
	if got := frames(obs.DirectionSent); got != sent {
		t.Errorf("sent frames = %d, want %d", got, sent)
	}
	if codecBytes != sent*100 {
		t.Errorf("binary sent bytes = %d, want %d", codecBytes, sent*100)
	}

	reg.Reset()
	observeBatch(obs.DirectionSent, c, 2, 40)
	observeBatch(obs.DirectionReceived, c, 5, 70)
	if got := frames(obs.DirectionSent); got != 1 {
		t.Errorf("sent frames after Reset = %d, want 1 (handles still point at the old registry?)", got)
	}
	if got := reg.Counter(obs.MetricNetMessagesTotal, obs.LabelDirection, obs.DirectionReceived).Value(); got != 5 {
		t.Errorf("received messages after Reset = %d, want 5", got)
	}
	if got := reg.Histogram(obs.MetricNetFrameMessages, obs.BatchBuckets).Count(); got != 2 {
		t.Errorf("frame-messages observations after Reset = %d, want 2", got)
	}

	// Shard workers count frames concurrently, each pair's first frame
	// racing to publish the table.
	reg.Reset()
	jsonCodec, _ := LookupCodec(CodecJSON)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			codec := []Codec{c, jsonCodec}[g%2]
			for i := 0; i < 100; i++ {
				observeBatch(obs.DirectionReceived, codec, 1, 10)
			}
		}(g)
	}
	wg.Wait()
	if got := frames(obs.DirectionReceived); got != 800 {
		t.Errorf("received frames from 8 concurrent workers = %d, want 800", got)
	}
}
