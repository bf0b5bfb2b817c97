package netproto

import (
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

// WriteBatch frames and writes msgs as one batch frame encoded with c,
// and records the frame in the wire metrics (frames, messages-per-frame
// histogram, per-codec bytes).
func WriteBatch(w io.Writer, c Codec, msgs []*Message) error {
	frame, err := AppendBatch(nil, c, msgs)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("netproto: write frame: %w", err)
	}
	observeBatch(obs.DirectionSent, c, len(msgs), len(frame))
	return nil
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

// ReadBatch reads one batch frame from r and decodes its messages,
// recording the frame in the wire metrics.
func ReadBatch(r io.Reader) ([]*Message, error) {
	var header [4]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, err // io.EOF is meaningful to callers; do not wrap
	}
	size := binary.BigEndian.Uint32(header[:])
	if size > MaxFrameSize {
		return nil, fmt.Errorf("netproto: frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
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

// frameReader adapts the batch framing to the one-message-at-a-time
// read loops of the center and agent: it reads a frame when its buffer
// runs dry and hands out the decoded messages in order.
type frameReader struct {
	r       io.Reader
	pending []*Message
}

func newFrameReader(r io.Reader) *frameReader { return &frameReader{r: r} }

func (fr *frameReader) next() (*Message, error) {
	for len(fr.pending) == 0 {
		msgs, err := ReadBatch(fr.r)
		if err != nil {
			return nil, err
		}
		fr.pending = msgs
	}
	m := fr.pending[0]
	fr.pending = fr.pending[1:]
	return m, nil
}

// wireState is one connection's framing mode: nil codec means the
// legacy per-message JSON framing, a non-nil codec means batch frames.
// The reader is lazily created because the mode is decided only after
// the hello/welcome exchange.
type wireState struct {
	codec Codec
	fr    *frameReader
}

// write sends one message under the connection's framing (a batch of
// one on negotiated connections — the TCP path serves one household per
// connection, so cross-household batching happens on cluster links, not
// here).
func (ws *wireState) write(w io.Writer, m *Message) error {
	if ws == nil || ws.codec == nil {
		return WriteMessage(w, m)
	}
	return WriteBatch(w, ws.codec, []*Message{m})
}

// read receives the next message under the connection's framing.
func (ws *wireState) read(r io.Reader) (*Message, error) {
	if ws == nil || ws.codec == nil {
		return ReadMessage(r)
	}
	if ws.fr == nil || ws.fr.r != r {
		ws.fr = newFrameReader(r)
	}
	return ws.fr.next()
}
