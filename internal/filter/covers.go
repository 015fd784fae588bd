package filter

import (
	"strings"

	"repro/internal/message"
)

// Covers reports whether constraint c accepts a superset of the values
// accepted by constraint d (both on the same attribute). The test is sound
// (a true result is always correct) and complete for the operator
// combinations that arise in routing tables; a false result may
// occasionally be a missed cover for exotic combinations, which only costs
// routing-table size, never correctness.
func (c Constraint) Covers(d Constraint) bool {
	if c.Attr != d.Attr {
		return false
	}
	if c.Equal(d) {
		return true
	}
	if c.Op == OpExists {
		// Presence accepts any value, hence covers everything on the
		// attribute.
		return true
	}
	switch c.Op {
	case OpEQ:
		return coversEQ(c, d)
	case OpNE:
		return coversNE(c, d)
	case OpLT, OpLE, OpGT, OpGE:
		return coversOrder(c, d)
	case OpPrefix:
		return coversPrefix(c, d)
	case OpSuffix:
		return coversSuffix(c, d)
	case OpContains:
		return coversContains(c, d)
	case OpIn:
		return coversIn(c, d)
	case OpRange:
		return coversRange(c, d)
	default:
		return false
	}
}

// dValues returns the finite set of values accepted by d, if d is finite
// (OpEQ or OpIn).
func dValues(d Constraint) ([]message.Value, bool) {
	switch d.Op {
	case OpEQ:
		return []message.Value{d.Value}, true
	case OpIn:
		return d.Values, true
	default:
		return nil, false
	}
}

func coversEQ(c, d Constraint) bool {
	vs, ok := dValues(d)
	if !ok || len(vs) != 1 {
		return false
	}
	return vs[0].Equal(c.Value)
}

func coversNE(c, d Constraint) bool {
	// c accepts everything except c.Value. It covers d iff d never accepts
	// c.Value.
	if vs, ok := dValues(d); ok {
		for _, v := range vs {
			if v.Equal(c.Value) {
				return false
			}
		}
		return true
	}
	switch d.Op {
	case OpNE:
		return d.Value.Equal(c.Value)
	case OpLT, OpLE, OpGT, OpGE, OpRange:
		return !d.matchesValue(c.Value)
	default:
		return false
	}
}

// orderBounds expresses an ordering constraint as an interval
// (lo, hi, loOpen, hiOpen) where an invalid bound means unbounded.
func orderBounds(c Constraint) (lo, hi message.Value, loOpen, hiOpen bool, ok bool) {
	switch c.Op {
	case OpLT:
		return message.Value{}, c.Value, false, true, true
	case OpLE:
		return message.Value{}, c.Value, false, false, true
	case OpGT:
		return c.Value, message.Value{}, true, false, true
	case OpGE:
		return c.Value, message.Value{}, false, false, true
	case OpRange:
		return c.Value, c.Hi, false, false, true
	case OpEQ:
		return c.Value, c.Value, false, false, true
	default:
		return message.Value{}, message.Value{}, false, false, false
	}
}

// intervalCovers reports whether interval c contains interval d.
func intervalCovers(cLo, cHi message.Value, cLoOpen, cHiOpen bool,
	dLo, dHi message.Value, dLoOpen, dHiOpen bool) bool {
	// Lower bound: c's lo must not be above d's lo.
	if cLo.IsValid() {
		if !dLo.IsValid() {
			return false
		}
		cmp, err := cLo.Compare(dLo)
		if err != nil {
			return false
		}
		if cmp > 0 {
			return false
		}
		if cmp == 0 && cLoOpen && !dLoOpen {
			return false
		}
	}
	// Upper bound: c's hi must not be below d's hi.
	if cHi.IsValid() {
		if !dHi.IsValid() {
			return false
		}
		cmp, err := cHi.Compare(dHi)
		if err != nil {
			return false
		}
		if cmp < 0 {
			return false
		}
		if cmp == 0 && cHiOpen && !dHiOpen {
			return false
		}
	}
	return true
}

func coversOrder(c, d Constraint) bool {
	if vs, ok := dValues(d); ok {
		for _, v := range vs {
			if !c.matchesValue(v) {
				return false
			}
		}
		return true
	}
	cLo, cHi, cLoO, cHiO, ok := orderBounds(c)
	if !ok {
		return false
	}
	dLo, dHi, dLoO, dHiO, ok := orderBounds(d)
	if !ok {
		return false
	}
	// Kind compatibility: any present bounds must share a kind.
	for _, pair := range [][2]message.Value{{cLo, dLo}, {cLo, dHi}, {cHi, dLo}, {cHi, dHi}} {
		if pair[0].IsValid() && pair[1].IsValid() && pair[0].Kind() != pair[1].Kind() {
			return false
		}
	}
	return intervalCovers(cLo, cHi, cLoO, cHiO, dLo, dHi, dLoO, dHiO)
}

func coversRange(c, d Constraint) bool {
	return coversOrder(c, d)
}

func coversPrefix(c, d Constraint) bool {
	if vs, ok := dValues(d); ok {
		for _, v := range vs {
			if !c.matchesValue(v) {
				return false
			}
		}
		return true
	}
	// prefix "ab" covers prefix "abc".
	return d.Op == OpPrefix && strings.HasPrefix(d.Value.Str(), c.Value.Str())
}

func coversSuffix(c, d Constraint) bool {
	if vs, ok := dValues(d); ok {
		for _, v := range vs {
			if !c.matchesValue(v) {
				return false
			}
		}
		return true
	}
	return d.Op == OpSuffix && strings.HasSuffix(d.Value.Str(), c.Value.Str())
}

func coversContains(c, d Constraint) bool {
	if vs, ok := dValues(d); ok {
		for _, v := range vs {
			if !c.matchesValue(v) {
				return false
			}
		}
		return true
	}
	// contains "a" covers contains "xaz", prefix "xa..."., suffix "...a".
	switch d.Op {
	case OpContains, OpPrefix, OpSuffix:
		return strings.Contains(d.Value.Str(), c.Value.Str())
	default:
		return false
	}
}

func coversIn(c, d Constraint) bool {
	vs, ok := dValues(d)
	if !ok {
		return false
	}
	for _, v := range vs {
		if !c.matchesValue(v) {
			return false
		}
	}
	return true
}

// Overlaps reports whether the two constraints (on the same attribute) can
// accept a common value. The test is conservative: when in doubt it
// returns true, which is the safe direction for routing (a notification is
// forwarded rather than dropped).
func (c Constraint) Overlaps(d Constraint) bool {
	if c.Attr != d.Attr {
		// Constraints on different attributes are independent and hence
		// always jointly satisfiable.
		return true
	}
	if c.Op == OpExists || d.Op == OpExists {
		return true
	}
	if vs, ok := dValues(d); ok {
		for _, v := range vs {
			if c.matchesValue(v) {
				return true
			}
		}
		return false
	}
	if vs, ok := dValues(c); ok {
		for _, v := range vs {
			if d.matchesValue(v) {
				return true
			}
		}
		return false
	}
	cLo, cHi, cLoO, cHiO, cOK := orderBounds(c)
	dLo, dHi, dLoO, dHiO, dOK := orderBounds(d)
	if cOK && dOK {
		return intervalsOverlap(cLo, cHi, cLoO, cHiO, dLo, dHi, dLoO, dHiO)
	}
	// String operators vs anything else: be conservative.
	return true
}

func intervalsOverlap(aLo, aHi message.Value, aLoO, aHiO bool,
	bLo, bHi message.Value, bLoO, bHiO bool) bool {
	// Empty overlap iff one interval ends before the other starts.
	if aHi.IsValid() && bLo.IsValid() {
		cmp, err := aHi.Compare(bLo)
		if err != nil {
			return false
		}
		if cmp < 0 || (cmp == 0 && (aHiO || bLoO)) {
			return false
		}
	}
	if bHi.IsValid() && aLo.IsValid() {
		cmp, err := bHi.Compare(aLo)
		if err != nil {
			return false
		}
		if cmp < 0 || (cmp == 0 && (bHiO || aLoO)) {
			return false
		}
	}
	return true
}
