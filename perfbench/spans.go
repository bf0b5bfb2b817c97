package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"enki/internal/obs"
)

// Benchmark span names. They live here, not among the program's obs
// Span* constants: these spans are recorded by the benchmark around the
// calls it makes into each layer or wraps, never by the program.
const (
	spanDay        = "bench.day"         // one ClusterDay / RunDayContext call
	spanRetime     = "bench.retime"      // the re-timing pass after a day
	spanSched      = "sched.allocate"    // a wrapped or re-timed scheduler call
	spanMechanism  = "mechanism.settle"  // the Eq. 4–7 chain re-run
	spanLedger     = "ledger.build"      // BuildLedgerEntry + Journal.AppendValue re-run
	spanLedgerW    = "ledger.write"      // a write reaching the WithLedger writer
	spanWireEnc    = "wire.encode"       // AppendBatch re-run
	spanWireDec    = "wire.decode"       // DecodeBatch re-run
	spanReplicaRTT = "replica.roundtrip" // quorum append/commit re-run over a pipe
)

// spanLayer names the layer each benchmark span times.
var spanLayer = map[string]string{
	spanDay:        "day",
	spanRetime:     "retime",
	spanSched:      "sched",
	spanMechanism:  "mechanism",
	spanLedger:     "ledger",
	spanLedgerW:    "ledger",
	spanWireEnc:    "wire",
	spanWireDec:    "wire",
	spanReplicaRTT: "replica",
}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"day", "sched", "mechanism", "ledger", "wire", "replica"}

// benchSpan is one finished span: name, start, end, parent, and the
// day's obs.DeriveTraceID as the ID every span of that day shares.
type benchSpan struct {
	Source   string   `json:"source"` // "bench" or "program"
	Name     string   `json:"name"`
	Labels   []string `json:"labels,omitempty"`
	TraceID  string   `json:"traceId,omitempty"`
	SpanID   string   `json:"spanId,omitempty"`
	ParentID string   `json:"parentId,omitempty"`
	StartNS  int64    `json:"startNs"`
	EndNS    int64    `json:"endNs"`
}

func (s benchSpan) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// spanRecorder keeps the benchmark's spans in memory until the run
// ends. Wrapped extension points (the scheduler, the ledger writer) are
// called from program goroutines, so every method locks.
type spanRecorder struct {
	mu      sync.Mutex
	on      bool
	next    uint64
	spans   []benchSpan
	trace   string // current day's trace ID
	parent  string // current day's span ID
	program []obs.Span
}

// newID returns a fresh span ID.
func (r *spanRecorder) newID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return fmt.Sprintf("b%015x", r.next)
}

// enter makes (traceID, spanID) the parent of spans recorded by the
// wrapped extension points until the next enter. An empty traceID stops
// recording.
func (r *spanRecorder) enter(traceID, spanID string) {
	r.mu.Lock()
	r.on = traceID != ""
	r.trace, r.parent = traceID, spanID
	r.mu.Unlock()
}

// wrapped records a span opened by a wrapped extension point under the
// current day, if recording.
func (r *spanRecorder) wrapped(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return
	}
	r.next++
	r.spans = append(r.spans, benchSpan{Source: "bench", Name: name, TraceID: r.trace,
		SpanID: fmt.Sprintf("b%015x", r.next), ParentID: r.parent,
		StartNS: start.UnixNano(), EndNS: end.UnixNano()})
}

// add records a span the benchmark opened itself.
func (r *spanRecorder) add(name, traceID, spanID, parentID string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, benchSpan{Source: "bench", Name: name, TraceID: traceID,
		SpanID: spanID, ParentID: parentID, StartNS: start.UnixNano(), EndNS: end.UnixNano()})
}

// keepProgram retains program spans for the span file, up to limit in
// all.
func (r *spanRecorder) keepProgram(spans []obs.Span, limit int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if room := limit - len(r.program); room > 0 {
		r.program = append(r.program, spans[:min(len(spans), room)]...)
	}
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it that its children cover.
func selfTimes(spans []benchSpan) map[string]time.Duration {
	children := map[string][]benchSpan{}
	for _, s := range spans {
		if s.ParentID != "" {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[spanLayer[s.Name]] += s.dur() - covered(s, children[s.SpanID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent benchSpan, kids []benchSpan) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = parent.StartNS
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(total)
}

// writeSpans writes every retained span, program and benchmark, as
// JSON lines.
func (r *spanRecorder) writeSpans(path string) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, s := range r.program {
		line := benchSpan{Source: "program", Name: s.Name, Labels: s.Labels, TraceID: s.TraceID,
			SpanID: s.SpanID, ParentID: s.ParentID, StartNS: s.StartNS, EndNS: s.EndNS}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return n, err
		}
		n++
	}
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return n, err
		}
		n++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
