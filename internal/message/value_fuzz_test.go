package message_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
	"testing"

	"repro/internal/message"
)

// oldValue is the 48-byte Value layout the packed one replaced — a field
// per payload kind — with its methods and codec kept verbatim as the
// reference FuzzValueSemantics holds the packed layout to.
type oldValue struct {
	kind message.Kind
	str  string
	num  int64
	fnum float64
	b    bool
}

func (v oldValue) Equal(w oldValue) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case message.KindString:
		return v.str == w.str
	case message.KindInt:
		return v.num == w.num
	case message.KindFloat:
		return v.fnum == w.fnum
	case message.KindBool:
		return v.b == w.b
	default:
		return true
	}
}

func (v oldValue) Compare(w oldValue) (int, error) {
	if v.kind != w.kind {
		return 0, message.ErrKindMismatch
	}
	switch v.kind {
	case message.KindString:
		switch {
		case v.str < w.str:
			return -1, nil
		case v.str > w.str:
			return 1, nil
		}
		return 0, nil
	case message.KindInt:
		switch {
		case v.num < w.num:
			return -1, nil
		case v.num > w.num:
			return 1, nil
		}
		return 0, nil
	case message.KindFloat:
		switch {
		case v.fnum < w.fnum:
			return -1, nil
		case v.fnum > w.fnum:
			return 1, nil
		}
		return 0, nil
	case message.KindBool:
		switch {
		case !v.b && w.b:
			return -1, nil
		case v.b && !w.b:
			return 1, nil
		}
		return 0, nil
	default:
		return 0, message.ErrKindMismatch
	}
}

func (v oldValue) Less(w oldValue) bool {
	c, err := v.Compare(w)
	return err == nil && c < 0
}

func (v oldValue) String() string {
	switch v.kind {
	case message.KindString:
		return strconv.Quote(v.str)
	case message.KindInt:
		return strconv.FormatInt(v.num, 10)
	case message.KindFloat:
		return strconv.FormatFloat(v.fnum, 'g', -1, 64)
	case message.KindBool:
		return strconv.FormatBool(v.b)
	default:
		return "<invalid>"
	}
}

func (v oldValue) Key() string {
	switch v.kind {
	case message.KindString:
		return "s:" + v.str
	case message.KindInt:
		return "i:" + strconv.FormatInt(v.num, 10)
	case message.KindFloat:
		return "f:" + strconv.FormatFloat(v.fnum, 'g', -1, 64)
	case message.KindBool:
		return "b:" + strconv.FormatBool(v.b)
	default:
		return "<invalid>"
	}
}

func (v oldValue) appendTo(buf []byte) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case message.KindString:
		buf = binary.AppendUvarint(buf, uint64(len(v.str)))
		buf = append(buf, v.str...)
	case message.KindInt:
		buf = binary.AppendVarint(buf, v.num)
	case message.KindFloat:
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], math.Float64bits(v.fnum))
		buf = append(buf, tmp[:]...)
	case message.KindBool:
		if v.b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// valuePair builds the same value in both layouts from fuzz inputs: kind
// selects the constructor (0 is the zero, invalid value), and bits is the
// int64, the float64's bits, or the bool's low bit.
func valuePair(kind uint8, s string, bits uint64) (message.Value, oldValue) {
	switch kind % 5 {
	case 1:
		return message.String(s), oldValue{kind: message.KindString, str: s}
	case 2:
		return message.Int(int64(bits)), oldValue{kind: message.KindInt, num: int64(bits)}
	case 3:
		f := math.Float64frombits(bits)
		return message.Float(f), oldValue{kind: message.KindFloat, fnum: f}
	case 4:
		return message.Bool(bits&1 == 1), oldValue{kind: message.KindBool, b: bits&1 == 1}
	default:
		return message.Value{}, oldValue{}
	}
}

// FuzzValueSemantics holds the packed Value to the field-per-kind layout
// it replaced: Equal, Compare, Less, Key and String agree on every pair,
// the codec writes the same bytes, and decoding gives those bytes back
// (NaN payloads included).
func FuzzValueSemantics(f *testing.F) {
	seeds := []uint64{
		0, 1, 1 << 63, // 0, 1, MinInt64 / -0.0
		math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.NaN()),
		0x7ff0000000000001, // signalling NaN
		0xfff8000000000123, // negative NaN with a payload
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		1,                  // smallest subnormal as a float
		0x000fffffffffffff, // largest subnormal as a float
		math.Float64bits(1.5),
		math.MaxInt64,
	}
	for _, a := range seeds {
		for _, kind := range []uint8{2, 3, 4} {
			f.Add(kind, "", a, kind, "", uint64(0))
			f.Add(kind, "", a, kind, "", a^1)
			f.Add(kind, "", a, uint8(3), "", math.Float64bits(0))
		}
	}
	f.Add(uint8(1), "a", uint64(0), uint8(1), "b", uint64(0))
	f.Add(uint8(1), "", uint64(0), uint8(0), "", uint64(0))
	f.Add(uint8(4), "", uint64(0), uint8(4), "", uint64(1))
	f.Add(uint8(2), "", uint64(1), uint8(3), "", math.Float64bits(1))

	f.Fuzz(func(t *testing.T, ka uint8, sa string, ba uint64, kb uint8, sb string, bb uint64) {
		a, oa := valuePair(ka, sa, ba)
		b, ob := valuePair(kb, sb, bb)
		if got, want := a.Equal(b), oa.Equal(ob); got != want {
			t.Fatalf("%s.Equal(%s) = %v, want %v", a, b, got, want)
		}
		gc, gerr := a.Compare(b)
		wc, werr := oa.Compare(ob)
		if gc != wc || (gerr == nil) != (werr == nil) {
			t.Fatalf("%s.Compare(%s) = %d, %v; want %d, %v", a, b, gc, gerr, wc, werr)
		}
		if got, want := a.Less(b), oa.Less(ob); got != want {
			t.Fatalf("%s.Less(%s) = %v, want %v", a, b, got, want)
		}
		for _, p := range []struct {
			v message.Value
			o oldValue
		}{{a, oa}, {b, ob}} {
			if got, want := p.v.Key(), p.o.Key(); got != want {
				t.Fatalf("Key() = %q, want %q", got, want)
			}
			if got, want := p.v.String(), p.o.String(); got != want {
				t.Fatalf("String() = %q, want %q", got, want)
			}
			if p.v.IsValid() != (p.o.kind != message.KindInvalid) || p.v.Kind() != p.o.kind {
				t.Fatalf("kind %v, want %v", p.v.Kind(), p.o.kind)
			}
			enc := message.AppendValue(nil, p.v)
			if want := p.o.appendTo(nil); !bytes.Equal(enc, want) {
				t.Fatalf("%s encodes to %x, want %x", p.v, enc, want)
			}
			if !p.v.IsValid() {
				continue
			}
			dec, n, err := message.DecodeValue(enc)
			if err != nil || n != len(enc) {
				t.Fatalf("decode %x: %d bytes, %v", enc, n, err)
			}
			if again := message.AppendValue(nil, dec); !bytes.Equal(again, enc) {
				t.Fatalf("%x decodes and re-encodes to %x", enc, again)
			}
		}
	})
}
