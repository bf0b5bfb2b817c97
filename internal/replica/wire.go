package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Message kinds of the replica peer protocol. A peer frame is a 4-byte
// big-endian payload length followed by a binary payload: fixed bytes
// and varints for the header fields, and each entry's Data as
// length-prefixed opaque bytes, so a frame is encoded once and never
// re-parses the entry payloads it carries.
const (
	// MsgAppend carries one entry from the leader; the follower inserts
	// it and answers MsgAck.
	MsgAppend = "append"
	// MsgCommit raises the follower's commit watermark; the follower
	// applies the newly committed entries and answers MsgAck.
	MsgCommit = "commit"
	// MsgAck acknowledges an append or commit. OK false carries a
	// Reason ("not leader", "gap") and, for gaps, the follower's
	// LastIndex so the leader can resend the missing suffix.
	MsgAck = "ack"
	// MsgSync asks a follower for its whole log; the follower answers
	// MsgLog.
	MsgSync = "sync"
	// MsgLog returns a follower's entries and commit watermark to a
	// syncing new leader.
	MsgLog = "log"
)

// Message is one frame of the replica peer protocol.
type Message struct {
	Kind      string
	Term      uint64
	From      int
	Commit    uint64
	OK        bool
	Reason    string
	LastIndex uint64
	Entry     *Entry
	Entries   []Entry
}

// MaxFrameSize bounds one peer frame's payload. Day entries carry a
// full DayRecord plus ledger entry, so the bound is generous.
const MaxFrameSize = 1 << 24

// msgKinds maps Message.Kind to its one-byte wire code (its index + 1).
var msgKinds = [...]string{MsgAppend, MsgCommit, MsgAck, MsgSync, MsgLog}

// Header flag bits.
const (
	flagOK    = 1 << 0
	flagEntry = 1 << 1
)

// minEntrySize is the smallest encoded entry: six one-byte varints
// (term, index, day, and the kind, phase and data lengths).
const minEntrySize = 6

// readChunk bounds the buffer ReadMessage commits before the payload
// bytes arrive, so a length prefix alone cannot make it allocate
// MaxFrameSize.
const readChunk = 64 << 10

var errMalformed = errors.New("replica: malformed frame")

// AppendFrame appends one complete peer frame for m — length prefix
// and binary payload — to dst, so a caller can send it with a single
// Write, or to several followers without re-encoding.
func AppendFrame(dst []byte, m *Message) ([]byte, error) {
	code := slices.Index(msgKinds[:], m.Kind) + 1
	if code == 0 {
		return dst, fmt.Errorf("replica: encode: unknown message kind %q", m.Kind)
	}
	start := len(dst)
	var flags byte
	if m.OK {
		flags |= flagOK
	}
	if m.Entry != nil {
		flags |= flagEntry
	}
	dst = append(dst, 0, 0, 0, 0, byte(code), flags)
	dst = binary.AppendUvarint(dst, m.Term)
	dst = binary.AppendVarint(dst, int64(m.From))
	dst = binary.AppendUvarint(dst, m.Commit)
	dst = binary.AppendUvarint(dst, m.LastIndex)
	dst = appendString(dst, m.Reason)
	if m.Entry != nil {
		dst = appendEntry(dst, m.Entry)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Entries)))
	for i := range m.Entries {
		dst = appendEntry(dst, &m.Entries[i])
	}
	size := len(dst) - start - 4
	if size > MaxFrameSize {
		return dst[:start], fmt.Errorf("replica: frame of %d bytes exceeds limit", size)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(size))
	return dst, nil
}

func appendEntry(dst []byte, e *Entry) []byte {
	dst = binary.AppendUvarint(dst, e.Term)
	dst = binary.AppendUvarint(dst, e.Index)
	dst = binary.AppendVarint(dst, int64(e.Day))
	dst = appendString(dst, e.Kind)
	dst = appendString(dst, e.Phase)
	dst = binary.AppendUvarint(dst, uint64(len(e.Data)))
	return append(dst, e.Data...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// WriteMessage frames and writes one peer message in a single Write.
func WriteMessage(w io.Writer, m *Message) error {
	frame, err := AppendFrame(nil, m)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("replica: write %s frame: %w", m.Kind, err)
	}
	return nil
}

// ReadMessage reads one framed peer message. Entry Data in the result
// aliases the frame's payload buffer, which no later read reuses.
func ReadMessage(r io.Reader) (*Message, error) {
	var header [4]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, err // io.EOF is meaningful to callers; do not wrap
	}
	size := int(binary.BigEndian.Uint32(header[:]))
	if size > MaxFrameSize {
		return nil, fmt.Errorf("replica: frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, 0, min(size, readChunk))
	for len(payload) < size {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(size-len(payload), len(payload)))
		}
		n, err := io.ReadFull(r, payload[len(payload):min(cap(payload), size)])
		payload = payload[:len(payload)+n]
		if err != nil {
			return nil, fmt.Errorf("replica: read payload: %w", err)
		}
	}
	return DecodeMessage(payload)
}

// DecodeMessage decodes one frame payload (the bytes after the length
// prefix). It is strict: every varint must be minimally encoded, every
// length must fit in the remaining bytes, and no bytes may trail, so a
// payload that decodes re-encodes to exactly the same bytes. Entry Data
// aliases payload; nothing in it is copied or validated.
func DecodeMessage(payload []byte) (*Message, error) {
	d := decoder{b: payload}
	code, flags := d.byte(), d.byte()
	if d.err == nil && (code == 0 || int(code) > len(msgKinds) || flags&^(flagOK|flagEntry) != 0) {
		d.fail("header")
	}
	m := &Message{
		Term:      d.uvarint(),
		From:      int(d.varint()),
		Commit:    d.uvarint(),
		LastIndex: d.uvarint(),
		Reason:    d.string(),
	}
	if d.err != nil {
		return nil, d.err
	}
	m.Kind = msgKinds[code-1]
	m.OK = flags&flagOK != 0
	if flags&flagEntry != 0 {
		m.Entry = new(Entry)
		d.entry(m.Entry)
	}
	count := d.uvarint()
	if d.err == nil && count > uint64(len(d.b)/minEntrySize) {
		d.fail("entry count")
	}
	if d.err == nil && count > 0 {
		m.Entries = make([]Entry, count)
		for i := range m.Entries {
			d.entry(&m.Entries[i])
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

// decoder consumes a payload front to back; the first failure sticks
// and every later read returns a zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errMalformed, what)
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("short header")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// uvarint reads a minimally encoded uvarint: a multi-byte encoding that
// ends in a zero byte is an overlong form of a shorter one.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint reads a zig-zag signed varint, as binary.AppendVarint writes.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// bytes reads a length-prefixed byte string, aliasing the payload with
// its capacity clipped so appending to the result cannot overwrite the
// bytes after it.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("length")
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) string() string {
	b := d.bytes()
	for _, k := range [...]string{KindMember, KindPhase, KindDay} {
		if string(b) == k {
			return k // the common entry kinds decode without allocating
		}
	}
	return string(b)
}

func (d *decoder) entry(e *Entry) {
	e.Term = d.uvarint()
	e.Index = d.uvarint()
	e.Day = int(d.varint())
	e.Kind = d.string()
	e.Phase = d.string()
	if data := d.bytes(); len(data) > 0 {
		e.Data = data
	}
}
