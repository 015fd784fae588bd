package message

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// Binary codec for values and notifications. The format is a simple
// length-prefixed layout:
//
//	value        := kind(u8) payload
//	  string     := len(uvarint) bytes
//	  int        := varint
//	  float      := 8 bytes IEEE 754 big endian
//	  bool       := u8 (0 or 1)
//	notification := count(uvarint) { name-len(uvarint) name value }*
//
// The codec is deliberately independent of encoding/gob so that framing is
// deterministic, versionable, and cheap.

// ErrTruncated is returned when a buffer ends before a full value or
// notification was decoded.
var ErrTruncated = errors.New("message: truncated encoding")

// AppendValue appends the binary encoding of v to buf and returns the
// extended slice.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindString:
		buf = binary.AppendUvarint(buf, uint64(len(v.str)))
		buf = append(buf, v.str...)
	case KindInt:
		buf = binary.AppendVarint(buf, v.num)
	case KindFloat:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.num))
	case KindBool:
		buf = append(buf, byte(v.num))
	}
	return buf
}

// DecodeValue decodes a value from the front of buf, returning the value
// and the number of bytes consumed. String payloads are plain copies; the
// notification decode path interns them instead (filter constants and
// other control-plane strings must not consume the value intern table).
func DecodeValue(buf []byte) (Value, int, error) {
	v, used, _, err := decodeValue(buf, false)
	return v, used, err
}

// minimalVarint reports whether the n-byte varint just read from the
// front of buf is the minimal encoding of its value: a multi-byte varint
// whose final byte is zero carries a redundant most-significant group, so
// re-encoding would produce different (shorter) bytes.
func minimalVarint(buf []byte, n int) bool { return n <= 1 || buf[n-1] != 0 }

// decodeValue decodes one value; the canonical result reports whether the
// encoding was minimal (every varint in its shortest form), which the
// notification decoder needs to decide frame pass-through eligibility.
func decodeValue(buf []byte, intern bool) (v Value, used int, canonical bool, err error) {
	if len(buf) == 0 {
		return Value{}, 0, false, ErrTruncated
	}
	kind := Kind(buf[0])
	rest := buf[1:]
	used = 1
	switch kind {
	case KindString:
		n, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return Value{}, 0, false, ErrTruncated
		}
		canonical = minimalVarint(rest, sz)
		rest = rest[sz:]
		used += sz
		if uint64(len(rest)) < n {
			return Value{}, 0, false, ErrTruncated
		}
		if intern {
			return String(internValueBytes(rest[:n])), used + int(n), canonical, nil
		}
		return String(string(rest[:n])), used + int(n), canonical, nil
	case KindInt:
		i, sz := binary.Varint(rest)
		if sz <= 0 {
			return Value{}, 0, false, ErrTruncated
		}
		return Int(i), used + sz, minimalVarint(rest, sz), nil
	case KindFloat:
		if len(rest) < 8 {
			return Value{}, 0, false, ErrTruncated
		}
		return Value{kind: KindFloat, num: int64(binary.BigEndian.Uint64(rest[:8]))}, used + 8, true, nil
	case KindBool:
		if len(rest) < 1 {
			return Value{}, 0, false, ErrTruncated
		}
		// Any nonzero byte decodes as true, but only 1 re-encodes to the
		// same byte.
		return Bool(rest[0] != 0), used + 1, rest[0] <= 1, nil
	default:
		return Value{}, 0, false, fmt.Errorf("message: decode: unknown kind %d", kind)
	}
}

// AppendNotification appends the binary encoding of n to buf and returns
// the extended slice. The notification's attribute slice is already in
// sorted name order, so the canonical encoding is a single linear append —
// no per-encode name collection or sort.
func AppendNotification(buf []byte, n Notification) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(n.attrs)))
	for _, a := range n.attrs {
		buf = binary.AppendUvarint(buf, uint64(len(a.Name)))
		buf = append(buf, a.Name...)
		buf = AppendValue(buf, a.Value)
	}
	return buf
}

// DecodeNotification decodes a notification from the front of buf,
// returning it and the number of bytes consumed.
func DecodeNotification(buf []byte) (Notification, int, error) {
	n, used, _, err := DecodeNotificationCanonical(buf)
	return n, used, err
}

// DecodeNotificationCanonical decodes a notification from the front of buf
// and additionally reports whether the encoding was canonical — exactly
// the bytes AppendNotification would produce for the decoded content:
// attribute names strictly increasing, every varint minimal, every bool
// 0 or 1. A canonical input decodes straight into the attribute slice in
// wire order — one allocation, no map, no sort — and re-encoding the
// result reproduces the input bytes, which is what lets a transit broker
// forward the inbound frame without re-encoding. Non-canonical input (a
// foreign encoder) still decodes — names normalized with
// later-duplicate-wins semantics — but is reported as such so it is never
// passed through verbatim.
func DecodeNotificationCanonical(buf []byte) (Notification, int, bool, error) {
	return (*Chunks)(nil).DecodeNotificationCanonical(buf)
}

// ChunkSize bounds each chunk a Chunks carves from, in bytes.
const ChunkSize = 4 << 10

// Chunk capacities in elements: as many as fit ChunkSize.
const (
	attrChunkLen  = ChunkSize / int(unsafe.Sizeof(Attr{}))
	notifChunkLen = ChunkSize / int(unsafe.Sizeof(Notification{}))
)

// Chunks carves the storage of decoded notifications — attribute slices
// and boxed Notification headers — out of chunks of at most ChunkSize
// bytes, so a reader decoding a stream of small notifications pays one
// allocation per chunk instead of two per notification. A full chunk is
// replaced by a new one and never reused: a carved piece stays valid for
// as long as anything references it, and the GC frees a chunk once
// nothing carved from it is. The price is that one retained notification
// keeps its whole chunk alive, so code that keeps a decoded notification
// past the handling of its message should keep n.Clone() instead.
//
// A nil *Chunks allocates every piece on its own (the package-level
// decoders). A Chunks is not safe for concurrent use.
type Chunks struct {
	attrs  []Attr         // free tail of the current attribute chunk
	notifs []Notification // free tail of the current header chunk
}

// attrSlice returns an empty slice with room for exactly n attributes.
// The capacity is capped (a 3-index slice), so an append past n
// reallocates instead of writing into the next carved slice.
func (c *Chunks) attrSlice(n int) []Attr {
	if c == nil || n > attrChunkLen {
		return make([]Attr, 0, n)
	}
	if c.attrs == nil || cap(c.attrs) < n {
		c.attrs = make([]Attr, attrChunkLen)
	}
	s := c.attrs[:0:n]
	c.attrs = c.attrs[n:]
	return s
}

// Box returns a pointer to a copy of n, carved from the header chunk.
func (c *Chunks) Box(n Notification) *Notification {
	if c == nil {
		p := new(Notification) // not &n: that would move n to the heap on every path
		*p = n
		return p
	}
	if len(c.notifs) == 0 {
		c.notifs = make([]Notification, notifChunkLen)
	}
	p := &c.notifs[0]
	*p = n
	c.notifs = c.notifs[1:]
	return p
}

// DecodeNotificationCanonical is the package-level function of the same
// name with the attribute slice carved from c.
func (c *Chunks) DecodeNotificationCanonical(buf []byte) (Notification, int, bool, error) {
	count, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return Notification{}, 0, false, ErrTruncated
	}
	canonical := minimalVarint(buf, sz)
	used := sz
	buf = buf[sz:]
	// Clamp the preallocation against the remaining bytes: an encoded
	// attribute takes at least three bytes (name length, value kind, one
	// payload byte), so a hostile count — which may not even fit an int —
	// cannot force a huge allocation.
	capN := len(buf) / 3
	if count < uint64(capN) {
		capN = int(count)
	}
	attrs := c.attrSlice(capN)
	for i := uint64(0); i < count; i++ {
		nameLen, nsz := binary.Uvarint(buf)
		if nsz <= 0 {
			return Notification{}, 0, false, ErrTruncated
		}
		canonical = canonical && minimalVarint(buf, nsz)
		buf = buf[nsz:]
		used += nsz
		if uint64(len(buf)) < nameLen {
			return Notification{}, 0, false, ErrTruncated
		}
		name := InternName(buf[:nameLen])
		buf = buf[nameLen:]
		used += int(nameLen)
		v, vsz, vcanon, err := decodeValue(buf, true)
		if err != nil {
			return Notification{}, 0, false, err
		}
		buf = buf[vsz:]
		used += vsz
		canonical = canonical && vcanon
		if len(attrs) > 0 && name <= attrs[len(attrs)-1].Name {
			canonical = false
		}
		attrs = append(attrs, Attr{Name: name, Value: v})
	}
	if canonical {
		return Notification{attrs: attrs}, used, true, nil
	}
	return Notification{attrs: normalizeAttrs(attrs)}, used, false, nil
}
