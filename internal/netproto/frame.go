package netproto

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"enki/internal/core"
	"enki/internal/obs"
)

// Batch frame layout, used once a connection has negotiated a codec
// (legacy connections keep the historical one-JSON-message-per-frame
// format of WriteMessage/ReadMessage):
//
//	u32 BE   payload length (everything after these 4 bytes)
//	u8       codec ID
//	uvarint  message count
//	count ×  { uvarint message length, message bytes }
//
// A frame carries 1..n messages encoded with one codec. Which framing a
// connection speaks is negotiated on the hello/welcome exchange (always
// legacy-framed), so the reader never has to guess.

// DefaultBatchSize is the messages-per-frame cap applied when batching
// is enabled without an explicit WithBatchSize.
const DefaultBatchSize = 64

// frameOverhead is the fixed per-frame cost: length header, codec ID.
const frameOverhead = 4 + 1

// AppendBatch encodes msgs into one batch frame appended to dst. It is
// the core of WriteBatch, exposed for benchmarks and the in-process
// cluster links; given a dst with room for the frame it does not
// allocate (the JSON codec's own marshalling aside).
func AppendBatch(dst []byte, c Codec, msgs []*Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length backpatched below
	dst = append(dst, c.ID())
	dst = binary.AppendUvarint(dst, uint64(len(msgs)))
	for _, m := range msgs {
		// Encode in place behind a one-byte length prefix, which covers
		// messages under 128 bytes; a longer message is shifted right to
		// widen its prefix. Either way no per-message buffer is needed.
		at := len(dst)
		dst = append(dst, 0)
		var err error
		if dst, err = c.Append(dst, m); err != nil {
			return nil, err
		}
		size := uint64(len(dst) - at - 1)
		if size < 0x80 {
			dst[at] = byte(size)
			continue
		}
		var prefix [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(prefix[:], size)
		dst = append(dst, prefix[1:k]...)
		copy(dst[at+k:], dst[at+1:len(dst)-(k-1)])
		copy(dst[at:], prefix[:k])
	}
	payload := len(dst) - start - 4
	if payload > MaxFrameSize {
		return nil, fmt.Errorf("netproto: batch frame of %d bytes exceeds limit", payload)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(payload))
	return dst, nil
}

// observeBatch counts one batch frame: the legacy per-message traffic
// series (so dashboards sum both framings), plus the frame count, the
// messages-per-frame histogram, and per-codec byte volume.
func observeBatch(direction string, c Codec, msgs, wireBytes int) {
	m := wireMetricsFor(direction, c.Name())
	m.messages.Add(uint64(msgs))
	m.bytes.Add(uint64(wireBytes))
	m.frames.Inc()
	m.frameMessages.Observe(float64(msgs))
	m.codecBytes.Add(uint64(wireBytes))
	if rec := obs.DefaultRecorder(); rec.Enabled() {
		rec.Record(obs.Event{
			Kind:   obs.EventWireFrame,
			Shard:  -1,
			Codec:  c.Name(),
			Action: direction,
			N:      msgs,
			Bytes:  wireBytes,
		})
	}
}

// wireMetrics holds the series one batch frame updates, resolved for one
// (direction, codec) pair. Resolving them through the registry builds
// label-qualified key strings, which per frame cost more than the frame
// counting itself.
type wireMetrics struct {
	messages, bytes, frames, codecBytes *obs.Counter
	frameMessages                       *obs.Histogram
}

type wireMetricsKey struct{ direction, codec string }

// wireMetricsTable is an immutable set of resolved handles for one
// registry generation. Readers load it without locking; writers replace
// it under wireMetricsMu, and a registry Reset (a new generation)
// starts a fresh table.
type wireMetricsTable struct {
	gen     uint64
	handles map[wireMetricsKey]*wireMetrics
}

var (
	wireMetricsMu  sync.Mutex
	wireMetricsTab atomic.Pointer[wireMetricsTable]
)

// wireMetricsFor returns the cached handles for a (direction, codec)
// pair, as sched's allocMetrics does for schedulers. Directions and
// codec names are constants, so the lookup does not allocate.
func wireMetricsFor(direction, codec string) *wireMetrics {
	reg := obs.Default()
	gen := reg.Generation()
	key := wireMetricsKey{direction, codec}
	if t := wireMetricsTab.Load(); t != nil && t.gen == gen {
		if m := t.handles[key]; m != nil {
			return m
		}
	}
	// A miss resolves the handles (the registry hands every caller the
	// same ones) and publishes a copy of the table with them added.
	m := &wireMetrics{
		messages:      reg.Counter(obs.MetricNetMessagesTotal, obs.LabelDirection, direction),
		bytes:         reg.Counter(obs.MetricNetBytesTotal, obs.LabelDirection, direction),
		frames:        reg.Counter(obs.MetricNetFramesTotal, obs.LabelDirection, direction),
		frameMessages: reg.Histogram(obs.MetricNetFrameMessages, obs.BatchBuckets),
		codecBytes:    reg.Counter(obs.MetricNetCodecBytesTotal, obs.LabelCodec, codec, obs.LabelDirection, direction),
	}
	wireMetricsMu.Lock()
	defer wireMetricsMu.Unlock()
	next := &wireMetricsTable{gen: gen, handles: map[wireMetricsKey]*wireMetrics{key: m}}
	if t := wireMetricsTab.Load(); t != nil && t.gen == gen {
		for k, v := range t.handles {
			if k != key {
				next.handles[k] = v
			}
		}
	}
	wireMetricsTab.Store(next)
	return m
}

// DecodeBatch parses one batch frame payload (everything after the u32
// length header) into freshly allocated messages.
func DecodeBatch(payload []byte) ([]*Message, error) {
	msgs, _, err := decodeBatch(nil, payload, nil)
	if err != nil {
		return nil, err
	}
	return msgs, nil
}

// decodeBatch appends the messages of one batch frame payload to dst and
// returns the frame's codec. With a nil arena every message is freshly
// allocated (DecodeBatch); with one, messages and their fixed-size
// payloads are carved from its slabs, and a frame that fails to decode
// rolls the arena back to where it stood, leaving the messages carved
// before it intact. On error dst is returned unextended.
func decodeBatch(dst []*Message, payload []byte, a *msgArena) ([]*Message, Codec, error) {
	if len(payload) < 1 {
		return dst, nil, fmt.Errorf("netproto: empty batch frame")
	}
	c, ok := lookupCodecID(payload[0])
	if !ok {
		return dst, nil, fmt.Errorf("netproto: unknown codec id %d", payload[0])
	}
	rest := payload[1:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return dst, nil, fmt.Errorf("netproto: batch frame missing message count")
	}
	rest = rest[n:]
	if count > uint64(len(rest)) {
		return dst, nil, fmt.Errorf("netproto: batch frame claims %d messages in %d bytes", count, len(rest))
	}
	// With room for the whole frame reserved, no slab changes chunk while
	// it decodes, so restoring the slab headers rolls a failure back.
	var saved msgArena
	if a != nil {
		a.reserve(int(count))
		saved = *a
	}
	fail := func(err error) ([]*Message, Codec, error) {
		if a != nil {
			*a = saved
		}
		return dst, nil, err
	}
	out := slices.Grow(dst, int(count))
	for i := uint64(0); i < count; i++ {
		size, n := binary.Uvarint(rest)
		if n <= 0 || size > uint64(len(rest)-n) {
			return fail(fmt.Errorf("netproto: batch frame message %d truncated", i))
		}
		rest = rest[n:]
		m := a.message()
		if err := c.Decode(rest[:size], m, a); err != nil {
			return fail(err)
		}
		rest = rest[size:]
		out = append(out, m)
	}
	if len(rest) != 0 {
		return fail(fmt.Errorf("netproto: batch frame has %d trailing bytes", len(rest)))
	}
	return out, c, nil
}

// msgArena is slab storage for messages: a []Message slab, slabs for the
// fixed-size payloads a message points at, and a []*Message view its
// owner lists messages in. The cluster builds outgoing messages in one
// and decodes incoming frames into another, so once the slabs have
// grown to a shard's size its day makes no per-message allocation. A
// full slab starts a larger chunk rather than moving, so a message stays
// where it was carved until reset. The carving methods the decoders
// call (message, pref, interval, payment) also work on a nil arena,
// which allocates each value fresh — DecodeBatch's way through the same
// decode loop.
type msgArena struct {
	msgs  []Message
	prefs []core.Preference
	ivs   []core.Interval
	pays  []PaymentDetail
	view  []*Message
}

// reset recycles the slabs and the view: the messages carved so far are
// overwritten by the next ones.
func (a *msgArena) reset() {
	a.msgs, a.prefs, a.ivs, a.pays = a.msgs[:0], a.prefs[:0], a.ivs[:0], a.pays[:0]
	a.view = a.view[:0]
}

// reserve makes room for n more values in every slab's current chunk.
func (a *msgArena) reserve(n int) {
	a.msgs = reserveSlab(a.msgs, n)
	a.prefs = reserveSlab(a.prefs, n)
	a.ivs = reserveSlab(a.ivs, n)
	a.pays = reserveSlab(a.pays, n)
}

// message carves a zeroed message.
func (a *msgArena) message() *Message {
	if a == nil {
		return new(Message)
	}
	return carve(&a.msgs)
}

// add carves a message with its header set and lists it in the view.
func (a *msgArena) add(kind Kind, id core.HouseholdID, day int) *Message {
	m := carve(&a.msgs)
	m.Kind, m.ID, m.Day = kind, id, day
	a.view = append(a.view, m)
	return m
}

func (a *msgArena) pref() *core.Preference {
	if a == nil {
		return new(core.Preference)
	}
	return carve(&a.prefs)
}

func (a *msgArena) interval() *core.Interval {
	if a == nil {
		return new(core.Interval)
	}
	return carve(&a.ivs)
}

func (a *msgArena) payment() *PaymentDetail {
	if a == nil {
		return new(PaymentDetail)
	}
	return carve(&a.pays)
}

// reserveSlab returns s, or a fresh empty chunk when s has fewer than n
// free slots; values already carved from s stay where they are.
func reserveSlab[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return make([]T, 0, max(2*cap(s), n, 64))
}

// carve takes the next slot of *s, zeroed.
func carve[T any](s *[]T) *T {
	*s = reserveSlab(*s, 1)
	*s = (*s)[:len(*s)+1]
	p := &(*s)[len(*s)-1]
	var zero T
	*p = zero
	return p
}

// frameReaderSize is the buffered reader each negotiated connection
// reads through. A session frame is about 30–170 bytes in binary (a few
// hundred in JSON), so one read syscall takes in a whole frame, or
// several, while the buffer stays small enough to allocate per
// connection at set-up.
const frameReaderSize = 512

// frameReader adapts the batch framing to the one-message-at-a-time
// read loops of the center and agent. It reads its connection through
// a small buffered reader and copies each frame's payload into a
// buffer it reuses, so a frame costs one read syscall and no allocation
// of its own. Decoded messages never alias that buffer: both codecs
// copy every string they decode.
type frameReader struct {
	br      *bufio.Reader
	header  [4]byte
	buf     []byte // payload buffer, reused across frames
	pending []*Message
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, frameReaderSize)}
}

// next returns the next message, reading a frame when the decoded ones
// run out. A frame that fails to decode is consumed whole, so the error
// is that frame's alone and the following frame reads normally.
func (fr *frameReader) next() (*Message, error) {
	for len(fr.pending) == 0 {
		msgs, err := fr.readFrame()
		if err != nil {
			return nil, err
		}
		fr.pending = msgs
	}
	m := fr.pending[0]
	fr.pending = fr.pending[1:]
	return m, nil
}

// readFrame reads one batch frame and decodes its messages, recording
// the frame in the wire metrics. The length header is checked against
// MaxFrameSize before the payload buffer grows.
func (fr *frameReader) readFrame() ([]*Message, error) {
	if _, err := io.ReadFull(fr.br, fr.header[:]); err != nil {
		return nil, err // io.EOF is meaningful to callers; do not wrap
	}
	size := binary.BigEndian.Uint32(fr.header[:])
	if size > MaxFrameSize {
		return nil, fmt.Errorf("netproto: frame of %d bytes exceeds limit", size)
	}
	payload, err := fr.payload(int(size))
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("netproto: read payload: %w", err)
	}
	msgs, c, err := decodeBatch(nil, payload, nil)
	if err != nil {
		return nil, err
	}
	if len(msgs) > 0 {
		observeBatch(obs.DirectionReceived, c, len(msgs), int(size)+4)
	}
	return msgs, nil
}

// payload reads the next n bytes into the payload buffer. A frame larger
// than the buffer grows it only with bytes already received: the
// buffered reader's contents are staged as each read delivers them, so
// a length header alone never commits memory for bytes the peer has not
// sent, and the buffer never holds more than the stream has delivered.
func (fr *frameReader) payload(n int) ([]byte, error) {
	if n <= cap(fr.buf) {
		p := fr.buf[:n]
		_, err := io.ReadFull(fr.br, p)
		return p, err
	}
	var staged [][]byte
	for got := 0; got < n; {
		if fr.br.Buffered() == 0 {
			if _, err := fr.br.Peek(1); err != nil {
				return nil, err
			}
		}
		chunk := make([]byte, min(fr.br.Buffered(), n-got))
		_, _ = fr.br.Read(chunk) // served from the buffered bytes
		staged = append(staged, chunk)
		got += len(chunk)
	}
	fr.buf = make([]byte, 0, n) // exactly n: append or Join may round up
	for _, chunk := range staged {
		fr.buf = append(fr.buf, chunk...)
	}
	return fr.buf, nil
}

// wireState is one negotiated connection's batch framing: its codec,
// the reader its inbound frames are parsed through, and the buffer its
// outbound frames are encoded in. A nil wireState is the legacy
// per-message JSON framing. Neither buffer has a lock of its own: each
// connection is read by one goroutine (the center's handleConn, the
// agent's loop), the center's writes are serialized by centerConn.mu,
// and an agent writes only from its loop goroutine. Keep it that way.
type wireState struct {
	codec Codec
	fr    *frameReader
	out   []byte      // write buffer, reused across frames
	one   [1]*Message // the batch of one write sends
}

// newWireState sets up the batch framing of a connection that
// negotiated codec c, reading from conn.
func newWireState(c Codec, conn io.Reader) *wireState {
	return &wireState{codec: c, fr: newFrameReader(conn)}
}

// write sends one message under the connection's framing (a batch of
// one on negotiated connections — the TCP path serves one household per
// connection, so cross-household batching happens on cluster links, not
// here) in a single Write.
func (ws *wireState) write(w io.Writer, m *Message) error {
	if ws == nil {
		return WriteMessage(w, m)
	}
	ws.one[0] = m
	frame, err := AppendBatch(ws.out[:0], ws.codec, ws.one[:])
	ws.one[0] = nil
	if err != nil {
		return err
	}
	ws.out = frame
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("netproto: write frame: %w", err)
	}
	observeBatch(obs.DirectionSent, ws.codec, 1, len(frame))
	return nil
}

// read receives the next message under the connection's framing; r is
// the connection, read directly only on legacy framing.
func (ws *wireState) read(r io.Reader) (*Message, error) {
	if ws == nil {
		return ReadMessage(r)
	}
	return ws.fr.next()
}
