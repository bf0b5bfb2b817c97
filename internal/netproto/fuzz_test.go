package netproto

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"enki/internal/core"
	"enki/internal/obs"
)

// FuzzReadMessage feeds arbitrary bytes to the frame decoder: it must
// never panic and never return both a message and an error.
func FuzzReadMessage(f *testing.F) {
	var seed bytes.Buffer
	pref := core.MustPreference(18, 22, 2)
	_ = WriteMessage(&seed, &Message{Kind: KindPreference, ID: 1, Day: 3, Pref: &pref})
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte(`{"kind":"hello"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err == nil && m == nil {
			t.Fatal("nil message with nil error")
		}
	})
}

// FuzzRoundTrip: any message the writer accepts must decode back to an
// identical frame — in the legacy framing and through each batch-frame
// codec.
func FuzzRoundTrip(f *testing.F) {
	f.Add("hello", int64(3), 7, "some error")
	f.Add("payment", int64(0), 0, "")
	f.Fuzz(func(t *testing.T, kind string, id int64, day int, errStr string) {
		if !utf8.ValidString(kind) || !utf8.ValidString(errStr) {
			t.Skip() // JSON normalizes invalid UTF-8 to U+FFFD, so it cannot round-trip
		}
		in := &Message{Kind: Kind(kind), ID: core.HouseholdID(id), Day: day, Err: errStr}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, in); err != nil {
			t.Skip() // oversized or unencodable inputs are rejected by contract
		}
		out, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("wrote but could not read back: %v", err)
		}
		if out.Kind != in.Kind || out.ID != in.ID || out.Day != in.Day || out.Err != in.Err {
			t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
		}
		for _, name := range CodecNames() {
			c, _ := LookupCodec(name)
			enc, err := c.Append(nil, in)
			if err != nil {
				t.Fatalf("%s encode: %v", name, err)
			}
			dec, err := decodeOne(c, enc)
			if err != nil {
				t.Fatalf("%s wrote but could not decode back: %v", name, err)
			}
			if !reflect.DeepEqual(in, dec) {
				t.Fatalf("%s round trip mismatch: %+v vs %+v", name, dec, in)
			}
		}
	})
}

// FuzzDecodeBatch feeds arbitrary bytes to the batch-frame decoder
// (codec ID, message count, per-message lengths, codec payloads): it
// must never panic and never return messages alongside an error.
func FuzzDecodeBatch(f *testing.F) {
	pref := core.MustPreference(18, 22, 2)
	for _, name := range []string{CodecJSON, CodecBinary} {
		c, _ := LookupCodec(name)
		frame, err := AppendBatch(nil, c, []*Message{
			{Kind: KindRequest, ID: 1, Day: 2},
			{Kind: KindPreference, ID: 1, Day: 2, Pref: &pref},
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, payload []byte) {
		msgs, err := DecodeBatch(payload)
		if err != nil && msgs != nil {
			t.Fatal("messages returned alongside an error")
		}
		if err == nil {
			for _, m := range msgs {
				if m == nil {
					t.Fatal("nil message in decoded batch")
				}
			}
		}
	})
}

// FuzzCodecDifferential is the cross-codec oracle: the same message
// encoded by the JSON codec and by the binary codec must decode to the
// same value — any divergence is a bug in one of them. The message is
// assembled from fuzzed fields including the optional structs.
func FuzzCodecDifferential(f *testing.F) {
	f.Add("preference", int64(1), 2, "tok", int64(18), int64(22), 2, 1.5, true, "trace", "span")
	f.Add("payment", int64(0), 0, "", int64(0), int64(0), 0, -3.25, false, "", "")
	f.Fuzz(func(t *testing.T, kind string, id int64, day int, token string,
		begin, end int64, duration int, amount float64, withPayment bool, traceID, spanID string) {
		if !utf8.ValidString(kind) || !utf8.ValidString(token) ||
			!utf8.ValidString(traceID) || !utf8.ValidString(spanID) {
			t.Skip() // JSON cannot round-trip invalid UTF-8; binary can, so skip the comparison
		}
		in := &Message{Kind: Kind(kind), ID: core.HouseholdID(id), Day: day, Token: token}
		if begin != 0 || end != 0 {
			in.Interval = &core.Interval{Begin: core.Hour(begin), End: core.Hour(end)}
		}
		if duration > 0 {
			in.Pref = &core.Preference{
				Window:   core.Interval{Begin: core.Hour(begin), End: core.Hour(end)},
				Duration: duration,
			}
		}
		if withPayment {
			in.Payment = &PaymentDetail{Amount: amount, TotalCost: amount * 2}
		}
		if traceID != "" || spanID != "" {
			in.Trace = &obs.TraceContext{TraceID: traceID, SpanID: spanID}
		}

		jsonC, _ := LookupCodec(CodecJSON)
		binC, _ := LookupCodec(CodecBinary)
		je, err := jsonC.Append(nil, in)
		if err != nil {
			t.Skip() // unencodable by contract (e.g. NaN payment in JSON)
		}
		be, err := binC.Append(nil, in)
		if err != nil {
			t.Fatalf("json accepted but binary rejected: %v", err)
		}
		jd, err := decodeOne(jsonC, je)
		if err != nil {
			t.Fatalf("json decode: %v", err)
		}
		bd, err := decodeOne(binC, be)
		if err != nil {
			t.Fatalf("binary decode: %v", err)
		}
		if !reflect.DeepEqual(jd, bd) {
			t.Fatalf("codecs disagree:\n json   %+v\n binary %+v", jd, bd)
		}
	})
}

// FuzzDecodeBatchArena is the arena decoder's differential oracle: a
// frame decoded into a reused, already-dirty arena must equal the same
// frame through DecodeBatch's fresh allocations — no field may survive
// from the message that held a slot before — and a frame that fails to
// decode must roll the arena back and leave the messages decoded before
// it intact.
func FuzzDecodeBatchArena(f *testing.F) {
	dirtyMsg := fullMessage()
	dirtyMsg.Metrics = &obs.MetricsReport{Source: "shard/0001"}
	var dirty [][]byte // a frame of fully populated messages per codec
	for _, name := range CodecNames() {
		c, _ := LookupCodec(name)
		frame, err := AppendBatch(nil, c, []*Message{dirtyMsg, dirtyMsg, dirtyMsg, dirtyMsg})
		if err != nil {
			f.Fatal(err)
		}
		dirty = append(dirty, frame[4:])
		day, err := AppendBatch(nil, c, benchBatch(10))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(day[4:])
		garbled := bytes.Clone(day[4:])
		garbled[len(garbled)/2] ^= 0x5a
		f.Add(garbled)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 3, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		want, wantErr := DecodeBatch(payload)
		for _, d := range dirty {
			// Populate every slot the frame can land in, then recycle them.
			var a msgArena
			for i := 0; i < 64; i++ {
				m := a.message()
				*m = *dirtyMsg
				*a.pref(), *a.interval(), *a.payment() = *m.Pref, *m.Interval, *m.Payment
			}
			a.reset()
			earlier, _, err := decodeBatch(a.view, d, &a)
			if err != nil {
				t.Fatal(err)
			}
			a.view = earlier
			ref, _ := DecodeBatch(d)
			fill := func() [4]int { return [4]int{len(a.msgs), len(a.prefs), len(a.ivs), len(a.pays)} }
			before := fill()

			got, _, err := decodeBatch(a.view, payload, &a)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("arena decode error %v, DecodeBatch error %v", err, wantErr)
			}
			if err != nil {
				// A frame claiming more messages than the chunk holds starts
				// a fresh chunk, so the fill may drop; it must never grow.
				after := fill()
				if len(got) != len(ref) || after[0] > before[0] || after[1] > before[1] ||
					after[2] > before[2] || after[3] > before[3] {
					t.Fatalf("failed decode extended the view to %d or kept slots %+v → %+v", len(got), before, after)
				}
			} else if len(got) != len(ref)+len(want) || !sameMessages(got[len(ref):], want) {
				t.Fatalf("arena decode differs from DecodeBatch:\n arena %s\n fresh %s", dump(got[len(ref):]), dump(want))
			}
			if !sameMessages(got[:len(ref)], ref) {
				t.Fatal("decoding a frame changed the messages decoded before it")
			}
		}
	})
}

// sameMessages is reflect.DeepEqual over message lists, except that
// payment amounts compare by bits, so NaN payloads equal themselves.
func sameMessages(a, b []*Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := *a[i], *b[i]
		if (x.Payment == nil) != (y.Payment == nil) {
			return false
		}
		if x.Payment != nil {
			px, py := *x.Payment, *y.Payment
			for _, f := range [][2]float64{
				{px.Amount, py.Amount}, {px.Flexibility, py.Flexibility}, {px.Defection, py.Defection},
				{px.SocialCost, py.SocialCost}, {px.TotalCost, py.TotalCost}, {px.PeakLoad, py.PeakLoad},
			} {
				if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
					return false
				}
			}
		}
		x.Payment, y.Payment = nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

func dump(msgs []*Message) string {
	var b strings.Builder
	for _, m := range msgs {
		fmt.Fprintf(&b, "%+v ", *m)
	}
	return b.String()
}

// FuzzFrameReader chunks a concatenation of valid and invalid batch
// frames at fuzzer-chosen read boundaries. The frame reader must never
// panic, must yield exactly the messages and errors per-frame
// DecodeBatch yields, and its payload buffer must never exceed the
// bytes delivered so far (nor MaxFrameSize).
func FuzzFrameReader(f *testing.F) {
	stream := sessionStream(f)
	f.Add(stream, []byte{})
	f.Add(stream, []byte{0, 1, 2, 3, 4, 5, 6, 7, 200, 3})
	f.Add(stream[:len(stream)-3], []byte{2})
	f.Add(append([]byte{0, 0x10, 0, 1}, stream...), []byte{0})
	f.Add(append([]byte{0, 0, 1, 0}, stream...), []byte{9, 9, 9})
	f.Add([]byte{0, 0x10, 0, 0, 1, 1, 0, 0, 0, 0}, []byte{}) // claims 1 MiB, delivers 6 bytes

	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		want := referenceFrames(stream)
		r := &chunkReader{data: stream, cuts: cuts}
		fr := newFrameReader(r)
		got := readFrames(fr, len(want), func() {
			if limit := min(MaxFrameSize, r.delivered); cap(fr.buf) > limit {
				t.Fatalf("payload buffer of %d bytes after %d delivered", cap(fr.buf), r.delivered)
			}
		})
		// Compared only after every read, so a message that aliased the
		// reused buffer would show the later frames' bytes.
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("read %d: got %+v, want %+v", i, got[i], want[i])
				}
			}
		}
	})
}
