package filter

import (
	"math"
	"strings"

	"repro/internal/message"
)

// This file implements the precomputed cover signature: a compact,
// construction-time fingerprint of a filter that lets Covers reject most
// non-covering pairs without walking constraint lists. The signature is a
// sound rejector only — when it cannot prove "f does not cover g" the full
// constraint walk decides — so it never changes the result of Covers, it
// only makes the common negative case O(1).
//
// Two ingredients:
//
//   - attribute bloom: one bit per constrained attribute name (FNV-1a
//     hashed into a 64-bit word). f covers g only if every attribute f
//     constrains is also constrained by g, so a bit set in f's bloom but
//     clear in g's proves non-coverage. Hash collisions only cost a missed
//     rejection, never a wrong one.
//   - per-attribute cells: for each attribute constrained by exactly one
//     signature-representable constraint, a summary of the accepted value
//     set — a numeric interval hull for EQ/LT/LE/GT/GE/Range over int or
//     float values, or an exact point for EQ over string or bool values
//     (the constraint's own operand, compared with Value.Equal).
//     When both filters carry a cell on the same attribute, the single
//     constraints must cover each other for the filters to, so a kind
//     mismatch, a point mismatch, or a hull non-containment is a proof of
//     non-coverage.
//
// Interval endpoints are widened to float64 (monotonically, so containment
// in the exact domain implies containment of the hulls) and open/closed
// endpoint distinctions are deliberately ignored: equal-looking float
// bounds with differing openness cannot be rejected soundly once int64
// values exceed float64 precision, so those rare pairs fall through to the
// full check instead.

// sig is the precomputed cover signature of a filter.
type sig struct {
	bloom uint64
	cells []sigCell
}

// sigCell summarizes the single constraint on one attribute, when that
// constraint is signature-representable. It names the constraint by its
// index in the filter's own list instead of copying the attribute name or
// operand, so a cell is 24 bytes and holds no pointer. Cells are sorted by
// attribute (the constraint list they are derived from already is).
type sigCell struct {
	lo, hi float64      // numeric hull; ±Inf when unbounded
	c      uint32       // index of the summarized constraint
	kind   message.Kind // kind of the constrained values
}

// isPoint reports whether the cell is an exact-point cell (string or bool
// equality, compared with Value.Equal) rather than a numeric hull.
func (c *sigCell) isPoint() bool { return c.kind == message.KindString || c.kind == message.KindBool }

// computeSig builds the signature for a canonically sorted constraint
// list.
func computeSig(cs []Constraint) sig {
	var s sig
	var buf [8]sigCell
	cells := buf[:0]
	for i := 0; i < len(cs); {
		j := i
		for j < len(cs) && cs[j].Attr == cs[i].Attr {
			j++
		}
		s.bloom |= attrBit(cs[i].Attr)
		if j-i == 1 {
			if cell, ok := constraintCell(&cs[i]); ok {
				cell.c = uint32(i)
				cells = append(cells, cell)
			}
		}
		i = j
	}
	if len(cells) > 0 {
		s.cells = make([]sigCell, len(cells)) // exact size: one allocation
		copy(s.cells, cells)
	}
	return s
}

// attrBit hashes an attribute name to its bloom bit (FNV-1a, 64-bit).
func attrBit(attr string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(attr); i++ {
		h ^= uint64(attr[i])
		h *= 1099511628211
	}
	return 1 << (h & 63)
}

// constraintCell summarizes one constraint, if representable; the caller
// sets the cell's constraint index.
func constraintCell(c *Constraint) (sigCell, bool) {
	k := c.Value.Kind()
	switch c.Op {
	case OpEQ:
		switch k {
		case message.KindInt, message.KindFloat:
			v := numVal(c.Value)
			return sigCell{kind: k, lo: v, hi: v}, true
		case message.KindString, message.KindBool:
			return sigCell{kind: k}, true
		}
	case OpLT, OpLE:
		if isNum(c.Value) {
			return sigCell{kind: k, lo: math.Inf(-1), hi: numVal(c.Value)}, true
		}
	case OpGT, OpGE:
		if isNum(c.Value) {
			return sigCell{kind: k, lo: numVal(c.Value), hi: math.Inf(1)}, true
		}
	case OpRange:
		if isNum(c.Value) && k == c.Hi.Kind() {
			return sigCell{kind: k, lo: numVal(c.Value), hi: numVal(c.Hi)}, true
		}
	}
	return sigCell{}, false
}

func isNum(v message.Value) bool {
	return v.Kind() == message.KindInt || v.Kind() == message.KindFloat
}

func numVal(v message.Value) float64 {
	if v.Kind() == message.KindInt {
		return float64(v.IntVal())
	}
	return v.FloatVal()
}

// canCover reports whether the signatures leave f.Covers(g) possible; a
// false result is a proof of non-coverage.
func (f *Filter) canCover(g *Filter) bool {
	if f.sig.bloom&^g.sig.bloom != 0 {
		// f constrains an attribute g does not; g accepts notifications
		// unconstrained there, which f rejects.
		return false
	}
	s, t := f.sig.cells, g.sig.cells
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		a, b := &s[i], &t[j]
		ca, cb := &f.cs[a.c], &g.cs[b.c]
		switch cmp := strings.Compare(ca.Attr, cb.Attr); {
		case cmp < 0:
			i++
		case cmp > 0:
			j++
		default:
			// Both filters constrain this attribute with exactly one
			// representable constraint each, so f covers g only if a's
			// constraint covers b's.
			if a.kind != b.kind {
				return false
			}
			if a.isPoint() {
				if !ca.Value.Equal(cb.Value) {
					return false
				}
			} else if a.lo > b.lo || a.hi < b.hi {
				return false
			}
			i++
			j++
		}
	}
	return true
}
