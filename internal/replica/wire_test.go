package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// wireSamples is one message of every kind the peer protocol sends,
// with the field shapes ReplicaSet produces.
func wireSamples() []*Message {
	day := &Entry{Term: 2, Index: 9, Kind: KindDay, Day: 3, Data: []byte("\x05ledgernot json")}
	return []*Message{
		{Kind: MsgAppend, Term: 2, Entry: day},
		{Kind: MsgAppend, Term: 2, Entries: []Entry{
			{Term: 1, Index: 1, Kind: KindMember, Data: []byte(`{"id":0,"token":"t","epoch":1}`)},
			{Term: 1, Index: 2, Kind: KindPhase, Day: 1, Phase: "preference", Data: []byte(`{"reports":[]}`)},
		}},
		{Kind: MsgCommit, Term: 2, Commit: 9},
		{Kind: MsgAck, From: 1, OK: true, LastIndex: 9},
		{Kind: MsgAck, From: 2, Reason: "gap", LastIndex: 4},
		{Kind: MsgSync, Term: 3},
		{Kind: MsgLog, From: 1, Commit: 8, Entries: []Entry{*day, {Term: 2, Index: 10, Kind: KindPhase, Day: -1}}},
	}
}

// TestFrameRoundTrip: every sample decodes back to itself, and Entry
// Data aliases the payload instead of being copied.
func TestFrameRoundTrip(t *testing.T) {
	for _, want := range wireSamples() {
		frame, err := AppendFrame(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		if size := binary.BigEndian.Uint32(frame); int(size) != len(frame)-4 {
			t.Fatalf("%s: length prefix %d, payload %d bytes", want.Kind, size, len(frame)-4)
		}
		got, err := DecodeMessage(frame[4:])
		if err != nil {
			t.Fatalf("%s: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", want.Kind, got, want)
		}
		if got.Entry != nil {
			payload := frame[4:]
			if &got.Entry.Data[0] != &payload[len(payload)-len(got.Entry.Data)-1] {
				t.Errorf("%s: entry data was copied out of the frame", want.Kind)
			}
		}
	}
}

// TestDecodeMessageRejects pins the strict decoder: each malformed
// payload fails with an error instead of decoding to something that
// would re-encode differently.
func TestDecodeMessageRejects(t *testing.T) {
	ack, err := AppendFrame(nil, &Message{Kind: MsgAck, OK: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := ack[4:] // kind, flags, term, from, commit, last, reason, count
	with := func(i int, b ...byte) []byte {
		return append(append(append([]byte(nil), payload[:i]...), b...), payload[i+1:]...)
	}
	cases := map[string][]byte{
		"empty":              nil,
		"kind zero":          with(0, 0),
		"unknown kind":       with(0, byte(len(msgKinds)+1)),
		"unknown flag":       with(1, 0x80),
		"overlong varint":    with(2, 0x80, 0x00),
		"truncated":          payload[:len(payload)-1],
		"trailing bytes":     append(append([]byte(nil), payload...), 0),
		"count exceeds rest": with(7, 0xff, 0xff, 0xff, 0xff, 0x0f),
		"reason past end":    with(6, 9),
		"entry flag, no entry": func() []byte {
			b := with(1, flagEntry)
			return b[:len(b)-1]
		}(),
	}
	for name, p := range cases {
		if m, err := DecodeMessage(p); !errors.Is(err, errMalformed) {
			t.Errorf("%s: got %+v, %v; want errMalformed", name, m, err)
		}
	}
}

// TestReadMessageBounds: ReadMessage refuses a length prefix past
// MaxFrameSize, fails on a payload cut short without first allocating
// what the prefix claims, and AppendFrame refuses a kind it cannot
// encode.
func TestReadMessageBounds(t *testing.T) {
	var header [4]byte
	binary.BigEndian.PutUint32(header[:], MaxFrameSize+1)
	if _, err := ReadMessage(bytes.NewReader(header[:])); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized frame: %v", err)
	}
	frame, err := AppendFrame(nil, wireSamples()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(bytes.NewReader(frame[:len(frame)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short payload: %v, want io.ErrUnexpectedEOF", err)
	}
	binary.BigEndian.PutUint32(header[:], MaxFrameSize)
	claim := &growthReader{t: t, r: bytes.NewReader(append(header[:], frame[4:]...))}
	if _, err := ReadMessage(claim); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("frame claiming %d bytes: %v, want io.ErrUnexpectedEOF", MaxFrameSize, err)
	}
	if _, err := AppendFrame(nil, &Message{Kind: "vote"}); err == nil {
		t.Error("unknown message kind encoded")
	}
}

// growthReader fails the test when ReadMessage asks for more bytes
// than readChunk or twice what the stream has delivered so far. The
// read buffer is what ReadMessage allocates before decoding, so this
// bounds it by the bytes actually present, whatever the length prefix
// claims.
type growthReader struct {
	t   *testing.T
	r   io.Reader
	got int
}

func (g *growthReader) Read(p []byte) (int, error) {
	if len(p) > max(readChunk, 2*g.got) {
		g.t.Fatalf("read of %d bytes requested after %d delivered", len(p), g.got)
	}
	n, err := g.r.Read(p)
	g.got += n
	return n, err
}

// FuzzReplicaMessage feeds arbitrary bytes to the peer-frame decoders.
// Neither may panic; ReadMessage's buffer may only grow as fast as the
// frame's bytes arrive and a decoded entry slice is bounded by the
// payload, so no claimed length allocates past the frame; and any
// frame or payload that decodes must re-encode to exactly the bytes it
// came from.
func FuzzReplicaMessage(f *testing.F) {
	for _, m := range wireSamples() {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 1, 0}) // claims MaxFrameSize
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := ReadMessage(&growthReader{t: t, r: bytes.NewReader(data)}); err == nil {
			size := 4 + int(binary.BigEndian.Uint32(data))
			again, err := AppendFrame(nil, m)
			if err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
			if !bytes.Equal(again, data[:size]) {
				t.Fatalf("frame re-encodes differently:\n got %x\nwant %x", again, data[:size])
			}
		}
		if m, err := DecodeMessage(data); err == nil {
			if cap(m.Entries) > len(data)/minEntrySize {
				t.Fatalf("%d-byte payload decoded into %d entry slots", len(data), cap(m.Entries))
			}
			again, err := AppendFrame(nil, m)
			if err != nil {
				t.Fatalf("decoded payload does not re-encode: %v", err)
			}
			if !bytes.Equal(again[4:], data) {
				t.Fatalf("payload re-encodes differently:\n got %x\nwant %x", again[4:], data)
			}
		}
	})
}
