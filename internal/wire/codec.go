package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/location"
	"repro/internal/message"
)

// Binary codec for wire messages, used by the TCP transport. The in-process
// channel transport passes Message values directly and never touches this
// codec. Layout is length/tag-prefixed and versioned with a leading magic
// byte so that incompatible peers fail fast.

const codecVersion = 1

// ErrBadFrame is returned for malformed or incompatible frames.
var ErrBadFrame = errors.New("wire: bad frame")

// encodeCalls counts frame serializations (AppendEncode, which Encode and
// Preencode go through). It exists for the zero-copy observability story:
// tests and benchmarks assert that a transit broker forwards a decoded
// publish without a single new serialization.
var encodeCalls atomic.Uint64

// EncodeCalls returns the number of frame serializations performed by this
// process so far.
func EncodeCalls() uint64 { return encodeCalls.Load() }

// Encode scratch pool. Frames are encoded into recycled buffers instead of
// a fresh make([]byte, 0, 128) per frame; the TCP send path holds one
// buffer per link and returns it at flush. PutEncodeBuf drops oversized
// buffers the same way the broker mailbox's recycle policy drops
// spike-sized batch arrays, so a single huge replay cannot pin its
// high-water allocation in the pool forever.
const maxPooledEncodeBuf = 64 << 10

var encBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// GetEncodeBuf returns an empty scratch buffer for AppendEncode. The
// boxed form keeps the pool cycle allocation-free: callers hold the *[]byte
// (updating it after AppendEncode grows the slice) and hand the same box
// back to PutEncodeBuf.
func GetEncodeBuf() *[]byte {
	buf := encBufPool.Get().(*[]byte)
	*buf = (*buf)[:0]
	return buf
}

// PutEncodeBuf returns a scratch buffer to the pool. Oversized buffers are
// dropped (left to the GC) so the pool retains only steady-state sizes.
// The caller must not use the buffer afterwards.
func PutEncodeBuf(buf *[]byte) {
	if cap(*buf) == 0 || cap(*buf) > maxPooledEncodeBuf {
		return
	}
	*buf = (*buf)[:0]
	encBufPool.Put(buf)
}

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)          { e.buf = append(e.buf, v) }
func (e *encoder) uv(v uint64)         { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) iv(v int64)          { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) str(s string)        { e.uv(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *encoder) val(v message.Value) { e.buf = message.AppendValue(e.buf, v) }
func (e *encoder) boolean(b bool) {
	if b {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrBadFrame, msg)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.fail("truncated u8")
		return 0
	}
	v := d.buf[d.pos]
	d.pos++
	return v
}

func (d *decoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) iv() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.pos += n
	return v
}

// bytes reads a length-prefixed byte string; the result aliases the frame.
func (d *decoder) bytes() []byte {
	n := d.uv()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)-d.pos) < n {
		d.fail("truncated string")
		return nil
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b
}

func (d *decoder) str() string { return string(d.bytes()) }

// name reads a string through the attribute-name intern table, for the
// attribute names of filter constraints.
func (d *decoder) name() string { return message.InternName(d.bytes()) }

func (d *decoder) val() message.Value {
	if d.err != nil {
		return message.Value{}
	}
	v, n, err := message.DecodeValue(d.buf[d.pos:])
	if err != nil {
		d.fail("bad value: " + err.Error())
		return message.Value{}
	}
	d.pos += n
	return v
}

func (d *decoder) boolean() bool { return d.u8() != 0 }

func encodeFilter(e *encoder, f filter.Filter) {
	n := f.Len()
	e.uv(uint64(n))
	for i := 0; i < n; i++ {
		c := f.At(i)
		e.str(c.Attr)
		e.u8(uint8(c.Op))
		switch c.Op {
		case filter.OpIn:
			e.uv(uint64(len(c.Values)))
			for _, v := range c.Values {
				e.val(v)
			}
		case filter.OpRange:
			e.val(c.Value)
			e.val(c.Hi)
		case filter.OpExists:
		default:
			e.val(c.Value)
		}
	}
}

func decodeFilter(d *decoder) filter.Filter {
	n := d.uv()
	if d.err != nil || n > uint64(len(d.buf)) {
		d.fail("bad constraint count")
		return filter.Filter{}
	}
	cs := make([]filter.Constraint, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		c := filter.Constraint{Attr: d.name(), Op: filter.Op(d.u8())}
		switch c.Op {
		case filter.OpIn:
			m := d.uv()
			if m > uint64(len(d.buf)) {
				d.fail("bad set size")
				return filter.Filter{}
			}
			for j := uint64(0); j < m && d.err == nil; j++ {
				c.Values = append(c.Values, d.val())
			}
		case filter.OpRange:
			c.Value = d.val()
			c.Hi = d.val()
		case filter.OpExists:
		default:
			c.Value = d.val()
		}
		cs = append(cs, c)
	}
	if d.err != nil {
		return filter.Filter{}
	}
	f, err := filter.New(cs...)
	if err != nil {
		d.fail("invalid filter: " + err.Error())
		return filter.Filter{}
	}
	return f
}

func encodeSub(e *encoder, s *Subscription) {
	encodeFilter(e, s.Filter)
	e.str(string(s.Client))
	e.str(string(s.ID))
	e.boolean(s.IsMobile)
	e.boolean(s.Presubscribe)
	e.boolean(s.Relocate)
	e.uv(s.LastSeq)
	e.uv(s.RelocEpoch)
	e.boolean(s.LocDependent)
	if s.LocDependent {
		e.str(s.LocAttr)
		e.str(s.GraphName)
		e.str(string(s.Loc))
		e.iv(int64(s.Delta))
		e.iv(int64(s.CumDelay))
		e.uv(uint64(s.Steps))
		e.uv(uint64(s.NextMultiple))
	}
}

func decodeSub(d *decoder) *Subscription {
	f := decodeFilter(d)
	if d.err != nil {
		// Bail out before constructing a garbage Subscription: every
		// remaining field read would return zero values anyway, and the
		// caller discards the message on d.err.
		return nil
	}
	s := &Subscription{
		Filter:       f,
		Client:       ClientID(d.str()),
		ID:           SubID(d.str()),
		IsMobile:     d.boolean(),
		Presubscribe: d.boolean(),
		Relocate:     d.boolean(),
		LastSeq:      d.uv(),
	}
	s.RelocEpoch = d.uv()
	s.LocDependent = d.boolean()
	if s.LocDependent {
		s.LocAttr = d.str()
		s.GraphName = d.str()
		s.Loc = location.Location(d.str())
		s.Delta = time.Duration(d.iv())
		s.CumDelay = time.Duration(d.iv())
		s.Steps = int(d.uv())
		s.NextMultiple = int(d.uv())
	}
	return s
}

// Encode serializes a message into a self-contained frame (excluding any
// outer length prefix, which the transport adds). The returned slice is
// freshly allocated at exact size and owned by the caller; the encoding
// itself runs in a pooled scratch buffer. Callers that write-and-discard
// frames should prefer AppendEncode with a recycled buffer.
func Encode(m Message) ([]byte, error) {
	scratch := GetEncodeBuf()
	frame, err := AppendEncode(*scratch, m)
	if err != nil {
		PutEncodeBuf(scratch)
		return nil, err
	}
	*scratch = frame[:0] // keep the possibly grown array for the pool
	out := make([]byte, len(frame))
	copy(out, frame)
	PutEncodeBuf(scratch)
	return out, nil
}

// AppendEncode appends m's frame encoding to buf and returns the extended
// slice. It is the allocation-conscious form of Encode: the TCP send path
// reuses one buffer per link across messages.
func AppendEncode(buf []byte, m Message) ([]byte, error) {
	encodeCalls.Add(1)
	e := &encoder{buf: buf}
	e.u8(codecVersion)
	e.u8(uint8(m.Type))
	switch m.Type {
	case TypePublish:
		if m.Notif == nil {
			return nil, fmt.Errorf("%w: publish without notification", ErrBadFrame)
		}
		e.buf = message.AppendNotification(e.buf, *m.Notif)
	case TypeSubscribe, TypeUnsubscribe, TypeAdvertise, TypeUnadvertise:
		if m.Sub == nil {
			return nil, fmt.Errorf("%w: %s without subscription", ErrBadFrame, m.Type)
		}
		encodeSub(e, m.Sub)
	case TypeFetch:
		if m.Fetch == nil {
			return nil, fmt.Errorf("%w: fetch without body", ErrBadFrame)
		}
		e.str(string(m.Fetch.Client))
		e.str(string(m.Fetch.ID))
		encodeFilter(e, m.Fetch.Filter)
		e.uv(m.Fetch.LastSeq)
		e.str(string(m.Fetch.Junction))
		e.uv(m.Fetch.Epoch)
	case TypeReplay:
		if m.Replay == nil {
			return nil, fmt.Errorf("%w: replay without body", ErrBadFrame)
		}
		e.str(string(m.Replay.Client))
		e.str(string(m.Replay.ID))
		e.str(string(m.Replay.From))
		e.uv(m.Replay.NextSeq)
		e.uv(uint64(len(m.Replay.Items)))
		for _, it := range m.Replay.Items {
			e.uv(it.Seq)
			e.buf = message.AppendNotification(e.buf, it.Notif)
		}
	case TypeLocUpdate:
		if m.Loc == nil {
			return nil, fmt.Errorf("%w: locupdate without body", ErrBadFrame)
		}
		e.str(string(m.Loc.Client))
		e.str(string(m.Loc.ID))
		e.str(string(m.Loc.OldLoc))
		e.str(string(m.Loc.NewLoc))
	case TypeDeliver:
		if m.Deliver == nil {
			return nil, fmt.Errorf("%w: deliver without body", ErrBadFrame)
		}
		e.buf = appendDeliverBody(e.buf, m.Deliver, nil)
	default:
		return nil, fmt.Errorf("%w: unknown type %s", ErrBadFrame, m.Type)
	}
	return e.buf, nil
}

// AppendDeliver appends the frame encoding of d to buf: the bytes
// AppendEncode(buf, NewDeliver(*d)) appends, without boxing d. body, when
// non-nil, must be the canonical encoding of d.Item.Notif — the
// NotifBody of the publish that carried it — and is copied in instead of
// encoding the notification again; the bytes are the same either way.
func AppendDeliver(buf []byte, d *Deliver, body []byte) []byte {
	encodeCalls.Add(1)
	buf = append(buf, codecVersion, uint8(TypeDeliver))
	return appendDeliverBody(buf, d, body)
}

// appendDeliverBody appends a deliver frame's fields after the two-byte
// header.
func appendDeliverBody(buf []byte, d *Deliver, body []byte) []byte {
	e := encoder{buf: buf}
	e.str(string(d.Client))
	e.str(string(d.ID))
	e.uv(d.Item.Seq)
	e.boolean(d.Replayed)
	if body != nil {
		return append(e.buf, body...)
	}
	return message.AppendNotification(e.buf, d.Item.Notif)
}

// NotifBody returns the canonical encoding of a publish's notification
// when the message carries its frame — Frame without its two-byte
// version and type header — and nil otherwise.
func (m *Message) NotifBody() []byte {
	if m.Type != TypePublish || len(m.Frame) < 2 {
		return nil
	}
	return m.Frame[2:]
}

// Preencode serializes the message once and caches the frame in m.Frame,
// so transports that need bytes send the same encoding to every link of a
// fan-out instead of re-encoding per hop. A message that already carries a
// frame is left untouched.
func Preencode(m *Message) error {
	if m.Frame != nil {
		return nil
	}
	frame, err := Encode(*m)
	if err != nil {
		return err
	}
	m.Frame = frame
	return nil
}

// Decode parses a frame produced by Encode.
//
// For publish frames whose notification body is in canonical attribute
// order (every frame this codec produces is), Decode attaches the inbound
// frame to Message.Frame: re-encoding the decoded message would reproduce
// those bytes exactly, so a broker that merely forwards the publish sends
// the received frame verbatim instead of serializing again. Callers must
// therefore treat the frame buffer as owned by the returned message and
// not reuse it.
func Decode(frame []byte) (Message, error) {
	return DecodeChunked(frame, nil)
}

// DecodeChunked is Decode with a publish's notification — its attribute
// slice and its boxed header — carved from c instead of allocated on its
// own (see message.Chunks for what that means for retention). A nil c is
// Decode.
func DecodeChunked(frame []byte, c *message.Chunks) (Message, error) {
	d := &decoder{buf: frame}
	if v := d.u8(); v != codecVersion {
		return Message{}, fmt.Errorf("%w: version %d (want %d)", ErrBadFrame, v, codecVersion)
	}
	m := Message{Type: Type(d.u8())}
	switch m.Type {
	case TypePublish:
		n, used, canonical, err := c.DecodeNotificationCanonical(d.buf[d.pos:])
		if err != nil {
			return Message{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		d.pos += used
		m.Notif = c.Box(n)
		if canonical && d.pos == len(frame) {
			// Byte-identical to the re-encoding (canonical body, no
			// trailing garbage): the inbound frame doubles as the cached
			// outbound encoding.
			m.Frame = frame
		}
	case TypeSubscribe, TypeUnsubscribe, TypeAdvertise, TypeUnadvertise:
		m.Sub = decodeSub(d)
	case TypeFetch:
		f := &Fetch{
			Client: ClientID(d.str()),
			ID:     SubID(d.str()),
			Filter: decodeFilter(d),
		}
		f.LastSeq = d.uv()
		f.Junction = BrokerID(d.str())
		f.Epoch = d.uv()
		m.Fetch = f
	case TypeReplay:
		r := &Replay{
			Client:  ClientID(d.str()),
			ID:      SubID(d.str()),
			From:    BrokerID(d.str()),
			NextSeq: d.uv(),
		}
		count := d.uv()
		if count > uint64(len(d.buf)) {
			return Message{}, fmt.Errorf("%w: bad replay count", ErrBadFrame)
		}
		// Preallocate from the decoded count, clamped against the
		// remaining bytes (every item takes at least one byte), instead of
		// growing by append.
		capItems := int(count)
		if remaining := len(d.buf) - d.pos; capItems > remaining {
			capItems = remaining
		}
		if capItems > 0 {
			r.Items = make([]SeqNotification, 0, capItems)
		}
		for i := uint64(0); i < count && d.err == nil; i++ {
			seq := d.uv()
			n, used, err := message.DecodeNotification(d.buf[d.pos:])
			if err != nil {
				return Message{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
			}
			d.pos += used
			r.Items = append(r.Items, SeqNotification{Seq: seq, Notif: n})
		}
		m.Replay = r
	case TypeLocUpdate:
		m.Loc = &LocUpdate{
			Client: ClientID(d.str()),
			ID:     SubID(d.str()),
			OldLoc: location.Location(d.str()),
			NewLoc: location.Location(d.str()),
		}
	case TypeDeliver:
		dv := &Deliver{
			Client: ClientID(d.str()),
			ID:     SubID(d.str()),
		}
		dv.Item.Seq = d.uv()
		dv.Replayed = d.boolean()
		n, used, err := message.DecodeNotification(d.buf[d.pos:])
		if err != nil {
			return Message{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		d.pos += used
		dv.Item.Notif = n
		m.Deliver = dv
	default:
		return Message{}, fmt.Errorf("%w: unknown type %d", ErrBadFrame, m.Type)
	}
	if d.err != nil {
		return Message{}, d.err
	}
	return m, nil
}
