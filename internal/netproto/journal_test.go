package netproto

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/mechanism"
)

func TestJournalRoundTrip(t *testing.T) {
	c := newTestCenter(t)
	types := []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
	}
	for i, typ := range types {
		a, err := Dial(c.Addr(), core.HouseholdID(i), &Truthful{Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	if err := c.WaitForAgents(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	journal := NewJournal(&buf)
	var wantCost, wantRevenue float64
	for day := 1; day <= 3; day++ {
		record, err := c.RunDay(day)
		if err != nil {
			t.Fatal(err)
		}
		if err := journal.Append(record); err != nil {
			t.Fatal(err)
		}
		wantCost += record.Cost
		for _, p := range record.Payments {
			wantRevenue += p
		}
	}

	records, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("read %d records, want 3", len(records))
	}
	for i, rec := range records {
		if rec.Day != i+1 {
			t.Errorf("record %d has day %d", i, rec.Day)
		}
		if len(rec.Reports) != 2 || len(rec.Payments) != 2 {
			t.Errorf("record %d incomplete: %d reports, %d payments",
				i, len(rec.Reports), len(rec.Payments))
		}
	}

	rep := ReplayJournal(records)
	if rep.Days != 3 {
		t.Errorf("replay days = %d, want 3", rep.Days)
	}
	if math.Abs(rep.TotalCost-wantCost) > 1e-9 {
		t.Errorf("replay cost %g, want %g", rep.TotalCost, wantCost)
	}
	if math.Abs(rep.Revenue-wantRevenue) > 1e-9 {
		t.Errorf("replay revenue %g, want %g", rep.Revenue, wantRevenue)
	}
	if len(rep.ByID) != 2 {
		t.Errorf("replay tracked %d households, want 2", len(rep.ByID))
	}
	for id, paid := range rep.ByID {
		if paid <= 0 {
			t.Errorf("household %d cumulative payment %g", id, paid)
		}
	}
}

func TestJournalAppendNil(t *testing.T) {
	j := NewJournal(&bytes.Buffer{})
	if err := j.Append(nil); err == nil {
		t.Error("nil record should be rejected")
	}
}

func TestReadJournalGarbage(t *testing.T) {
	// A lone corrupt line is a trailing partial record: skipped, and an
	// empty (but replayable) history remains.
	records, err := ReadJournal(strings.NewReader("{bad json}\n"))
	if err != nil {
		t.Errorf("lone corrupt trailing line should be skipped, got %v", err)
	}
	if len(records) != 0 {
		t.Errorf("corrupt-only journal yielded %d records", len(records))
	}
	// Corruption followed by a valid record is real damage, not a
	// crash-truncated tail: the whole read fails.
	valid := `{"day":1,"reports":[],"assignments":[],"consumptions":[],"payments":[],"flexibility":[],"defection":[],"socialCost":[],"cost":0,"peak":0}`
	if _, err := ReadJournal(strings.NewReader("{bad json}\n" + valid + "\n")); err == nil {
		t.Error("mid-journal corruption should be rejected")
	}
	records, err = ReadJournal(strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Errorf("blank journal yielded %d records", len(records))
	}
}

// TestReadJournalTruncatedTail simulates a crash during append: a valid
// history followed by a half-written final line. The replay must return
// the intact records and skip the partial one.
func TestReadJournalTruncatedTail(t *testing.T) {
	c := newTestCenter(t)
	for i, typ := range []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
	} {
		a, err := Dial(c.Addr(), core.HouseholdID(i), &Truthful{Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	if err := c.WaitForAgents(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	journal := NewJournal(&buf)
	for day := 1; day <= 2; day++ {
		record, err := c.RunDay(day)
		if err != nil {
			t.Fatal(err)
		}
		if err := journal.Append(record); err != nil {
			t.Fatal(err)
		}
	}
	intact := buf.String()

	for _, tail := range []string{
		`{"day":3,"repor`,      // cut mid-key, no newline
		`{"day":3,"reports":[`, // cut mid-array with newline
		"\n" + `{"day"`,        // blank line then a stub
	} {
		records, err := ReadJournal(strings.NewReader(intact + tail))
		if err != nil {
			t.Errorf("tail %q: replay failed: %v", tail, err)
			continue
		}
		if len(records) != 2 {
			t.Errorf("tail %q: replayed %d records, want 2", tail, len(records))
			continue
		}
		rep := ReplayJournal(records)
		if rep.Days != 2 || len(rep.ByID) != 2 {
			t.Errorf("tail %q: replay summary %+v malformed", tail, rep)
		}
	}
}

// lineWriter records every Write call and fails every call after the
// first ok ones.
type lineWriter struct {
	ok     int
	writes [][]byte
}

func (w *lineWriter) Write(p []byte) (int, error) {
	if len(w.writes) >= w.ok {
		return 0, errors.New("disk full")
	}
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// checkOneLinePerWrite requires every Write to carry exactly one
// complete line.
func checkOneLinePerWrite(t *testing.T, writes [][]byte) {
	t.Helper()
	for i, w := range writes {
		if bytes.IndexByte(w, '\n') != len(w)-1 {
			t.Errorf("write %d is not exactly one newline-terminated line: %q", i, w)
		}
	}
}

func TestJournalLedgerEntryOneWritePerLine(t *testing.T) {
	w := &lineWriter{ok: 10}
	j := NewJournal(w)
	entry := mechanism.LedgerEntry{Schema: 1, TraceID: "t", Day: 1, Households: []mechanism.LedgerHousehold{{ID: 3, Payment: 1.5}}}
	if err := j.AppendValue(&entry); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendValue(entry); err != nil {
		t.Fatal(err)
	}
	if err := j.appendLine([]byte(`{"day":2}`)); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 3 {
		t.Fatalf("%d writes for 3 lines", len(w.writes))
	}
	checkOneLinePerWrite(t, w.writes)
	want, _ := json.Marshal(entry)
	for i := 0; i < 2; i++ {
		if got := w.writes[i]; !bytes.Equal(got[:len(got)-1], want) {
			t.Errorf("line %d = %s, want json.Marshal's %s", i, got, want)
		}
	}
}

func TestJournalNonFiniteEntryWritesNothing(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := &lineWriter{ok: 10}
		j := NewJournal(w)
		entry := &mechanism.LedgerEntry{Schema: 1, Households: []mechanism.LedgerHousehold{{ID: 1, Payment: 2}, {ID: 2, Payment: bad}}}
		err := j.AppendValue(entry)
		if err == nil || !strings.Contains(err.Error(), "netproto: encode journal record: json: unsupported value") {
			t.Errorf("payment %v: error %v, want json.Marshal's unsupported-value error", bad, err)
		}
		if len(w.writes) != 0 || len(j.LedgerTail(1)) != 0 {
			t.Errorf("payment %v: %d writes, tail %d; want nothing recorded", bad, len(w.writes), len(j.LedgerTail(1)))
		}

		var st shardState
		line, err := st.encodeLedger(entry)
		if err == nil || line != nil {
			t.Errorf("payment %v: shard encode returned %q, %v; want no line and an error", bad, line, err)
		}
	}
}

func TestJournalTailOwnsItsLines(t *testing.T) {
	j := NewJournal(io.Discard)
	buf := []byte(`{"day":1}`)
	if err := j.appendLine(buf); err != nil {
		t.Fatal(err)
	}
	// A shard reuses its encode buffer for the next day's line.
	copy(buf, `{"day":9}`)
	tail := j.LedgerTail(1)
	if len(tail) != 1 || string(tail[0]) != `{"day":1}` {
		t.Fatalf("tail = %q, want the line as appended", tail)
	}
	// Appending to a tail line must not write into the journal's copy.
	_ = append(tail[0], '!')
	if got := j.LedgerTail(1)[0]; string(got) != `{"day":1}` {
		t.Errorf("tail changed to %q by a caller's append", got)
	}
}

// TestJournalTailCopiesSurviveRingReuse: the ring reuses each slot's
// buffer, so LedgerTail must hand out copies — a retained result stays
// byte-identical however many lines are appended after it.
func TestJournalTailCopiesSurviveRingReuse(t *testing.T) {
	j := NewJournal(io.Discard)
	for i := 0; i < 3; i++ {
		if err := j.appendLine([]byte(fmt.Sprintf(`{"day":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	held := j.LedgerTail(3)
	want := make([]string, len(held))
	for i, line := range held {
		want[i] = string(line)
	}
	for i := 0; i < journalTailCap+1; i++ {
		if err := j.appendLine([]byte(fmt.Sprintf(`{"day":%d,"pad":"xxxxxxxx"}`, 100+i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, line := range held {
		if string(line) != want[i] {
			t.Errorf("retained tail line %d changed to %q, want %q", i, line, want[i])
		}
	}
	if got := j.LedgerTail(1); len(got) != 1 || string(got[0]) != fmt.Sprintf(`{"day":%d,"pad":"xxxxxxxx"}`, 100+journalTailCap) {
		t.Errorf("latest tail line = %q", got)
	}
}
