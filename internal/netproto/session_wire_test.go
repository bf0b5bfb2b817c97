package netproto

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"enki/internal/core"
	"enki/internal/obs"
)

// negotiatedDay runs one TCP day between a StartCenter built from opts
// and two Connect agents, and returns the batch-frame codec bytes
// counted per codec name plus the codec the first agent's connection
// negotiated.
func negotiatedDay(t *testing.T, opts ...Option) (codecBytes map[string]uint64, agentCodec string) {
	t.Helper()
	obs.Default().Reset()
	center, err := StartCenter("127.0.0.1:0", append(opts, WithPhaseDeadline(5*time.Second))...)
	if err != nil {
		t.Fatal(err)
	}
	defer center.Close()
	ctx := context.Background()
	var agents []*Agent
	for i, typ := range []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
	} {
		a, err := Connect(ctx, center.Addr(), core.HouseholdID(i), &Truthful{Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		agents = append(agents, a)
	}
	if err := center.WaitForAgentsContext(ctx, len(agents)); err != nil {
		t.Fatal(err)
	}
	if _, err := center.RunDayContext(ctx, 1); err != nil {
		t.Fatal(err)
	}
	agents[0].mu.Lock()
	if ws := agents[0].ws; ws != nil {
		agentCodec = ws.codec.Name()
	}
	agents[0].mu.Unlock()
	codecBytes = map[string]uint64{}
	for _, name := range CodecNames() {
		for _, dir := range []string{obs.DirectionSent, obs.DirectionReceived} {
			codecBytes[name] += obs.Default().Counter(obs.MetricNetCodecBytesTotal,
				obs.LabelCodec, name, obs.LabelDirection, dir).Value()
		}
	}
	return codecBytes, agentCodec
}

// TestDefaultCenterNegotiatesBinary: a center started without WithCodec
// picks the binary codec from the agents' offer, and the day's frames
// are counted under binary only.
func TestDefaultCenterNegotiatesBinary(t *testing.T) {
	counted, codec := negotiatedDay(t)
	if codec != CodecBinary {
		t.Errorf("default center negotiated %q, want %q", codec, CodecBinary)
	}
	if counted[CodecBinary] == 0 || counted[CodecJSON] != 0 {
		t.Errorf("codec bytes = %v, want binary only", counted)
	}
}

// TestExplicitJSONCodecNegotiatesJSON: WithCodec(CodecJSON) still puts
// the session on JSON batch frames.
func TestExplicitJSONCodecNegotiatesJSON(t *testing.T) {
	counted, codec := negotiatedDay(t, WithCodec(CodecJSON))
	if codec != CodecJSON {
		t.Errorf("WithCodec(CodecJSON) negotiated %q, want %q", codec, CodecJSON)
	}
	if counted[CodecJSON] == 0 || counted[CodecBinary] != 0 {
		t.Errorf("codec bytes = %v, want json only", counted)
	}
}

// frameItem is one result of reading a frame stream message by
// message: a message, or an error rendered as its text.
type frameItem struct {
	msg *Message
	err string
}

// referenceFrames splits stream into frames the plain way, decoding
// each complete one with DecodeBatch. It returns what next should yield
// call by call: each frame's messages or its decode error, ending with
// the error that stops the stream (io.EOF at a frame boundary).
func referenceFrames(stream []byte) []frameItem {
	var out []frameItem
	for {
		if len(stream) == 0 {
			return append(out, frameItem{err: io.EOF.Error()})
		}
		if len(stream) < 4 {
			return append(out, frameItem{err: io.ErrUnexpectedEOF.Error()})
		}
		size := uint32(stream[0])<<24 | uint32(stream[1])<<16 | uint32(stream[2])<<8 | uint32(stream[3])
		if size > MaxFrameSize {
			return append(out, frameItem{err: fmt.Sprintf("netproto: frame of %d bytes exceeds limit", size)})
		}
		if uint64(len(stream)-4) < uint64(size) {
			return append(out, frameItem{err: fmt.Errorf("netproto: read payload: %w", io.ErrUnexpectedEOF).Error()})
		}
		msgs, err := DecodeBatch(stream[4 : 4+size])
		if err != nil {
			out = append(out, frameItem{err: err.Error()})
		}
		for _, m := range msgs {
			out = append(out, frameItem{msg: m})
		}
		stream = stream[4+size:]
	}
}

// readFrames calls fr.next n times. check, when non-nil, runs after
// every call.
func readFrames(fr *frameReader, n int, check func()) []frameItem {
	out := make([]frameItem, 0, n)
	for range n {
		m, err := fr.next()
		if check != nil {
			check()
		}
		if err != nil {
			out = append(out, frameItem{err: err.Error()})
			continue
		}
		out = append(out, frameItem{msg: m})
	}
	return out
}

// chunkReader delivers data in reads of the sizes cuts names (each
// byte plus one), then in whatever the caller asks for, counting the
// bytes and reads delivered.
type chunkReader struct {
	data             []byte
	cuts             []byte
	delivered, reads int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(r.data))
	if len(r.cuts) > 0 {
		n = min(n, int(r.cuts[0])+1)
		r.cuts = r.cuts[1:]
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	r.delivered += n
	r.reads++
	return n, nil
}

// sessionStream concatenates the frames of a session: every protocol
// message kind in both codecs, a multi-message frame, a garbled frame
// and an empty one.
func sessionStream(t testing.TB) []byte {
	t.Helper()
	pref := core.MustPreference(18, 22, 2)
	iv := core.Interval{Begin: 19, End: 21}
	tc := &obs.TraceContext{TraceID: "0123456789abcdef", SpanID: "span-1"}
	batches := [][]*Message{
		{{Kind: KindRequest, ID: 3, Day: 7, Trace: tc}},
		{{Kind: KindPreference, ID: 3, Day: 7, Pref: &pref, Trace: tc}},
		{{Kind: KindAllocation, ID: 3, Day: 7, Interval: &iv}, {Kind: KindConsumption, ID: 3, Day: 7, Interval: &iv}},
		{{Kind: KindPayment, ID: 3, Day: 7, Payment: &PaymentDetail{Amount: 4.2, TotalCost: 21}}},
		{fullMessage()},
	}
	var stream []byte
	for _, name := range CodecNames() {
		c, _ := LookupCodec(name)
		for _, msgs := range batches {
			var err error
			if stream, err = AppendBatch(stream, c, msgs); err != nil {
				t.Fatal(err)
			}
		}
	}
	stream = append(stream, 0, 0, 0, 3, 1, 1, 0xff) // garbled: truncated message
	stream = append(stream, 0, 0, 0, 0)             // empty frame
	c, _ := LookupCodec(CodecBinary)
	stream, err := AppendBatch(stream, c, []*Message{{Kind: KindRequest, ID: 4, Day: 8}})
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// TestFrameReaderSplitStreams: whatever the read boundaries — a split
// at every byte offset, one byte per read, many frames in one read —
// the frame reader yields exactly what per-frame DecodeBatch does.
func TestFrameReaderSplitStreams(t *testing.T) {
	stream := sessionStream(t)
	want := referenceFrames(stream)
	for cut := 0; cut <= len(stream); cut++ {
		r := io.MultiReader(bytes.NewReader(stream[:cut]), bytes.NewReader(stream[cut:]))
		if got := readFrames(newFrameReader(r), len(want), nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("split at byte %d: frame reader diverges from DecodeBatch", cut)
		}
	}
	if got := readFrames(newFrameReader(iotest.OneByteReader(bytes.NewReader(stream))), len(want), nil); !reflect.DeepEqual(got, want) {
		t.Fatal("one byte per read: frame reader diverges from DecodeBatch")
	}

	// Small frames that fit the buffered reader together arrive in one
	// read syscall and are all served from it.
	c, _ := LookupCodec(CodecBinary)
	var small []byte
	for day := range 10 {
		var err error
		if small, err = AppendBatch(small, c, []*Message{{Kind: KindRequest, ID: 1, Day: day}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(small) > frameReaderSize {
		t.Fatalf("test stream of %d bytes does not fit one buffered read", len(small))
	}
	r := &chunkReader{data: small}
	want = referenceFrames(small)
	if got := readFrames(newFrameReader(r), len(want)-1, nil); !reflect.DeepEqual(got, want[:len(want)-1]) {
		t.Fatal("coalesced frames: frame reader diverges from DecodeBatch")
	}
	if r.reads != 1 {
		t.Errorf("10 frames delivered together took %d reads, want 1", r.reads)
	}
}

// TestFrameReaderMessagesOwnTheirStrings: a decoded message keeps its
// Token and Trace after the next frame has been read into the reused
// payload buffer, in both codecs.
func TestFrameReaderMessagesOwnTheirStrings(t *testing.T) {
	for _, name := range CodecNames() {
		c, _ := LookupCodec(name)
		first := &Message{Kind: KindRequest, ID: 1, Day: 1, Token: "token-AAAA",
			Trace: &obs.TraceContext{TraceID: "trace-AAAA", SpanID: "span-AAAA"}}
		second := &Message{Kind: KindRequest, ID: 1, Day: 1, Token: "token-BBBB",
			Trace: &obs.TraceContext{TraceID: "trace-BBBB", SpanID: "span-BBBB"}}
		stream, err := AppendBatch(nil, c, []*Message{first})
		if err != nil {
			t.Fatal(err)
		}
		if stream, err = AppendBatch(stream, c, []*Message{second}); err != nil {
			t.Fatal(err)
		}
		fr := newFrameReader(bytes.NewReader(stream))
		m1, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		m2, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m1, first) || !reflect.DeepEqual(m2, second) {
			t.Errorf("%s: frame 1 decoded as %+v (trace %+v) after frame 2 was read; want token and trace of frame 1",
				name, m1, m1.Trace)
		}
	}
}

// writeCounter is a net.Conn that records each Write call; only Write
// is implemented.
type writeCounter struct {
	net.Conn
	writes int
	buf    bytes.Buffer
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestOneWritePerFrame: the legacy, batch and garbled senders each put
// a frame on the wire in a single Write, and the frame reads back (or,
// garbled, fails to decode).
func TestOneWritePerFrame(t *testing.T) {
	m := fullMessage()
	binary, _ := LookupCodec(CodecBinary)
	batch := newWireState(binary, nil)
	cases := []struct {
		name    string
		send    func(w *writeCounter) error
		read    func(r io.Reader) (*Message, error)
		garbled bool
	}{
		{"legacy", func(w *writeCounter) error { return WriteMessage(w, m) }, ReadMessage, false},
		{"batch", func(w *writeCounter) error { return batch.write(w, m) }, readBatchOne, false},
		{"garbled legacy", func(w *writeCounter) error { return writeGarbled(w, nil, m) }, ReadMessage, true},
		{"garbled batch", func(w *writeCounter) error { return writeGarbled(w, batch, m) }, readBatchOne, true},
	}
	for _, tc := range cases {
		for range 2 { // the second batch write reuses the write buffer
			w := &writeCounter{}
			if err := tc.send(w); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if w.writes != 1 {
				t.Errorf("%s: %d Write calls for one frame, want 1", tc.name, w.writes)
			}
			got, err := tc.read(&w.buf)
			switch {
			case tc.garbled && err == nil:
				t.Errorf("%s: garbled frame decoded", tc.name)
			case !tc.garbled && (err != nil || !reflect.DeepEqual(got, m)):
				t.Errorf("%s: frame reads back as %+v, %v", tc.name, got, err)
			case tc.garbled && strings.Contains(err.Error(), "read payload"):
				t.Errorf("%s: garbled frame was not framed whole: %v", tc.name, err)
			}
		}
	}
}

func readBatchOne(r io.Reader) (*Message, error) { return newFrameReader(r).next() }
