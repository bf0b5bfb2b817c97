package netproto

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

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
// the allocation-free core of WriteBatch, exposed for benchmarks and
// the in-process cluster links.
func AppendBatch(dst []byte, c Codec, msgs []*Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length backpatched below
	dst = append(dst, c.ID())
	dst = binary.AppendUvarint(dst, uint64(len(msgs)))
	var scratch []byte
	for _, m := range msgs {
		enc, err := c.Append(scratch[:0], m)
		if err != nil {
			return nil, err
		}
		scratch = enc
		dst = binary.AppendUvarint(dst, uint64(len(enc)))
		dst = append(dst, enc...)
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
// length header) into messages.
func DecodeBatch(payload []byte) ([]*Message, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("netproto: empty batch frame")
	}
	c, ok := lookupCodecID(payload[0])
	if !ok {
		return nil, fmt.Errorf("netproto: unknown codec id %d", payload[0])
	}
	rest := payload[1:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("netproto: batch frame missing message count")
	}
	rest = rest[n:]
	if count > uint64(len(rest)) {
		return nil, fmt.Errorf("netproto: batch frame claims %d messages in %d bytes", count, len(rest))
	}
	msgs := make([]*Message, 0, count)
	for i := uint64(0); i < count; i++ {
		size, n := binary.Uvarint(rest)
		if n <= 0 || size > uint64(len(rest)-n) {
			return nil, fmt.Errorf("netproto: batch frame message %d truncated", i)
		}
		rest = rest[n:]
		m, err := c.Decode(rest[:size])
		if err != nil {
			return nil, err
		}
		rest = rest[size:]
		msgs = append(msgs, m)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("netproto: batch frame has %d trailing bytes", len(rest))
	}
	return msgs, nil
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
	msgs, err := DecodeBatch(payload)
	if err != nil {
		return nil, err
	}
	if len(msgs) > 0 {
		c, _ := lookupCodecID(payload[0])
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
