// Package message defines the notification data model of the pub/sub
// middleware: typed attribute values, notifications built from name/value
// pairs, and a compact binary codec used by the TCP transport.
//
// The model follows the paper's description of Rebeca (Section 2.1): a
// notification is a set of name/value pairs such as
//
//	(service = "parking"), (location = "100 Rebeca Drive"), (cost < 3)
//
// Values are totally ordered within a kind, which is what content-based
// filters rely on for <, <=, >, >= constraints.
package message

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// Value kinds. KindInvalid is the zero value so that an uninitialized
// Value is detectably invalid.
const (
	KindInvalid Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// ErrKindMismatch is returned when two values of different kinds are
// compared with an ordering comparison.
var ErrKindMismatch = errors.New("message: value kinds do not match")

// Value is an immutable typed attribute value. The zero Value is invalid.
//
// One payload word serves every non-string kind: num holds the int64, the
// IEEE 754 bits of the float64, or 0/1 for a bool, so a Value is 32 bytes
// on 64-bit platforms (a notification attribute 48). str is empty for the
// non-string kinds and num is zero for strings, so two values of the same
// non-float kind are equal exactly when both fields are.
type Value struct {
	str  string
	num  int64
	kind Kind
}

// String constructs a string-valued attribute value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Int constructs an integer-valued attribute value.
func Int(i int64) Value { return Value{kind: KindInt, num: i} }

// Float constructs a float-valued attribute value. The bits are kept as
// given, NaN payloads included.
func Float(f float64) Value { return Value{kind: KindFloat, num: int64(math.Float64bits(f))} }

// Bool constructs a boolean-valued attribute value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, num: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the dynamic kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value carries a kind.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.str }

// IntVal returns the integer payload. It is only meaningful for KindInt.
func (v Value) IntVal() int64 { return v.num }

// FloatVal returns the float payload. It is only meaningful for KindFloat.
func (v Value) FloatVal() float64 { return math.Float64frombits(uint64(v.num)) }

// BoolVal returns the bool payload. It is only meaningful for KindBool.
func (v Value) BoolVal() bool { return v.num != 0 }

// Equal reports whether two values have the same kind and payload. Floats
// compare as numbers: NaN equals nothing, and -0 equals +0.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	if v.kind == KindFloat {
		return v.FloatVal() == w.FloatVal()
	}
	return v.num == w.num && v.str == w.str
}

// Compare totally orders two values of the same kind, returning -1, 0, or
// +1. Booleans order false < true. Comparing values of different kinds
// returns ErrKindMismatch.
func (v Value) Compare(w Value) (int, error) {
	if v.kind != w.kind {
		return 0, ErrKindMismatch
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.str, w.str), nil
	case KindInt, KindBool:
		return cmp.Compare(v.num, w.num), nil
	case KindFloat:
		// Not cmp.Compare, which orders NaN first: a NaN compares equal
		// to everything here.
		a, b := v.FloatVal(), w.FloatVal()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("message: compare invalid value: %w", ErrKindMismatch)
	}
}

// Less reports whether v orders strictly before w; it returns false when the
// kinds differ.
func (v Value) Less(w Value) bool {
	c, err := v.Compare(w)
	return err == nil && c < 0
}

// String renders the value for diagnostics. Strings are quoted so that the
// rendering is unambiguous.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		return strconv.Quote(v.str)
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindFloat:
		return strconv.FormatFloat(v.FloatVal(), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.BoolVal())
	default:
		return "<invalid>"
	}
}

// Key returns a canonical string usable as a map key or for building
// canonical filter identities. Unlike String it prefixes the kind so that
// Int(1) and Float(1) cannot collide.
func (v Value) Key() string {
	switch v.kind {
	case KindString:
		return "s:" + v.str
	case KindInt:
		return "i:" + strconv.FormatInt(v.num, 10)
	case KindFloat:
		return "f:" + strconv.FormatFloat(v.FloatVal(), 'g', -1, 64)
	case KindBool:
		return "b:" + strconv.FormatBool(v.BoolVal())
	default:
		return "<invalid>"
	}
}
