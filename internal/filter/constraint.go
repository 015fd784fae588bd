// Package filter implements content-based subscription filters: boolean
// functions over the entire content of a notification (Section 2.1 of the
// paper). A filter is a conjunction of attribute constraints. The package
// also implements the two routing-table optimizations the paper's mobility
// algorithms rely on (Section 2.2): covering ("does F1 accept a superset of
// the notifications of F2?") and perfect merging (combining filters into a
// single cover that accepts exactly their union).
package filter

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/message"
)

// Op enumerates constraint operators.
type Op uint8

// Constraint operators. OpAny accepts every value of the attribute
// (including absence) and is produced by merges that widen a constraint
// away entirely.
const (
	OpInvalid  Op = iota
	OpEQ          // attribute == value
	OpNE          // attribute != value
	OpLT          // attribute < value
	OpLE          // attribute <= value
	OpGT          // attribute > value
	OpGE          // attribute >= value
	OpPrefix      // string attribute has prefix
	OpSuffix      // string attribute has suffix
	OpContains    // string attribute contains substring
	OpIn          // attribute in finite set
	OpRange       // lo <= attribute <= hi
	OpExists      // attribute is present, any value
)

var opNames = map[Op]string{
	OpEQ:       "=",
	OpNE:       "!=",
	OpLT:       "<",
	OpLE:       "<=",
	OpGT:       ">",
	OpGE:       ">=",
	OpPrefix:   "prefix",
	OpSuffix:   "suffix",
	OpContains: "contains",
	OpIn:       "in",
	OpRange:    "range",
	OpExists:   "exists",
}

// String returns the operator's surface syntax.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "invalid"
}

// ErrInvalidConstraint is returned when a constraint is structurally
// malformed (missing operand, wrong value kind for the operator, ...).
var ErrInvalidConstraint = errors.New("filter: invalid constraint")

// Constraint restricts a single attribute. Which operand fields are used
// depends on Op: Value for the unary comparison operators, Values for OpIn,
// Value (the low bound) and Hi for OpRange, none for OpExists.
type Constraint struct {
	Attr   string
	Op     Op
	Value  message.Value
	Values []message.Value
	Hi     message.Value
}

// EQ builds an equality constraint.
func EQ(attr string, v message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpEQ, Value: v}
}

// NE builds an inequality constraint.
func NE(attr string, v message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpNE, Value: v}
}

// LT builds a strict less-than constraint.
func LT(attr string, v message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpLT, Value: v}
}

// LE builds a less-or-equal constraint.
func LE(attr string, v message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpLE, Value: v}
}

// GT builds a strict greater-than constraint.
func GT(attr string, v message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpGT, Value: v}
}

// GE builds a greater-or-equal constraint.
func GE(attr string, v message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpGE, Value: v}
}

// Prefix builds a string-prefix constraint.
func Prefix(attr, p string) Constraint {
	return Constraint{Attr: attr, Op: OpPrefix, Value: message.String(p)}
}

// Suffix builds a string-suffix constraint.
func Suffix(attr, s string) Constraint {
	return Constraint{Attr: attr, Op: OpSuffix, Value: message.String(s)}
}

// Contains builds a substring constraint.
func Contains(attr, s string) Constraint {
	return Constraint{Attr: attr, Op: OpContains, Value: message.String(s)}
}

// In builds a finite-set membership constraint. The set is copied,
// deduplicated, and kept in sorted order so constraint identity is
// canonical.
func In(attr string, vs ...message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpIn, Values: canonSet(vs)}
}

// Range builds an inclusive range constraint lo <= attr <= hi.
func Range(attr string, lo, hi message.Value) Constraint {
	return Constraint{Attr: attr, Op: OpRange, Value: lo, Hi: hi}
}

// Exists builds a presence constraint.
func Exists(attr string) Constraint {
	return Constraint{Attr: attr, Op: OpExists}
}

// canonSet deduplicates and sorts values by Key.
func canonSet(vs []message.Value) []message.Value {
	seen := make(map[string]bool, len(vs))
	out := make([]message.Value, 0, len(vs))
	for _, v := range vs {
		k := v.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Validate checks structural well-formedness of the constraint.
func (c Constraint) Validate() error {
	if c.Attr == "" {
		return fmt.Errorf("%w: empty attribute name", ErrInvalidConstraint)
	}
	switch c.Op {
	case OpEQ, OpNE:
		if !c.Value.IsValid() {
			return fmt.Errorf("%w: %s needs a value", ErrInvalidConstraint, c.Op)
		}
	case OpLT, OpLE, OpGT, OpGE:
		if !c.Value.IsValid() {
			return fmt.Errorf("%w: %s needs a value", ErrInvalidConstraint, c.Op)
		}
		if c.Value.Kind() == message.KindBool {
			return fmt.Errorf("%w: ordering on bool", ErrInvalidConstraint)
		}
	case OpPrefix, OpSuffix, OpContains:
		if c.Value.Kind() != message.KindString {
			return fmt.Errorf("%w: %s needs a string operand", ErrInvalidConstraint, c.Op)
		}
	case OpIn:
		if len(c.Values) == 0 {
			return fmt.Errorf("%w: empty set for in", ErrInvalidConstraint)
		}
	case OpRange:
		if !c.Value.IsValid() || !c.Hi.IsValid() {
			return fmt.Errorf("%w: range needs lo and hi", ErrInvalidConstraint)
		}
		if c.Value.Kind() != c.Hi.Kind() {
			return fmt.Errorf("%w: range bounds of different kinds", ErrInvalidConstraint)
		}
		if cmp, err := c.Value.Compare(c.Hi); err != nil || cmp > 0 {
			return fmt.Errorf("%w: empty range", ErrInvalidConstraint)
		}
	case OpExists:
		// no operands
	default:
		return fmt.Errorf("%w: unknown operator", ErrInvalidConstraint)
	}
	return nil
}

// Matches reports whether the constraint accepts the notification. A
// constraint on an absent attribute never matches.
func (c Constraint) Matches(n message.Notification) bool { return c.matches(n) }

// matches is Matches behind a pointer receiver: a Constraint is 112 bytes,
// and the match path (Filter.Matches, Filter.MatchesExcept) evaluates
// constraints in place in the filter's backing array instead of copying
// one per call.
func (c *Constraint) matches(n message.Notification) bool {
	v, ok := n.Get(c.Attr)
	if !ok {
		return false
	}
	return c.matchesValue(v)
}

func (c *Constraint) matchesValue(v message.Value) bool {
	switch c.Op {
	case OpEQ:
		return v.Equal(c.Value)
	case OpNE:
		return v.Kind() == c.Value.Kind() && !v.Equal(c.Value)
	case OpLT, OpLE, OpGT, OpGE:
		cmp, err := v.Compare(c.Value)
		if err != nil {
			return false
		}
		switch c.Op {
		case OpLT:
			return cmp < 0
		case OpLE:
			return cmp <= 0
		case OpGT:
			return cmp > 0
		default:
			return cmp >= 0
		}
	case OpPrefix:
		return v.Kind() == message.KindString && strings.HasPrefix(v.Str(), c.Value.Str())
	case OpSuffix:
		return v.Kind() == message.KindString && strings.HasSuffix(v.Str(), c.Value.Str())
	case OpContains:
		return v.Kind() == message.KindString && strings.Contains(v.Str(), c.Value.Str())
	case OpIn:
		for _, w := range c.Values {
			if v.Equal(w) {
				return true
			}
		}
		return false
	case OpRange:
		lo, err1 := v.Compare(c.Value)
		hi, err2 := v.Compare(c.Hi)
		return err1 == nil && err2 == nil && lo >= 0 && hi <= 0
	case OpExists:
		return true
	default:
		return false
	}
}

// Equal reports structural equality of two constraints.
func (c Constraint) Equal(d Constraint) bool {
	if c.Attr != d.Attr || c.Op != d.Op {
		return false
	}
	switch c.Op {
	case OpIn:
		if len(c.Values) != len(d.Values) {
			return false
		}
		for i := range c.Values {
			if !c.Values[i].Equal(d.Values[i]) {
				return false
			}
		}
		return true
	case OpRange:
		return c.Value.Equal(d.Value) && c.Hi.Equal(d.Hi)
	case OpExists:
		return true
	default:
		return c.Value.Equal(d.Value)
	}
}

// String renders the constraint in the paper's notation, e.g.
// (location in {"a", "b"}) or (cost < 3).
func (c Constraint) String() string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(c.Attr)
	b.WriteByte(' ')
	switch c.Op {
	case OpIn:
		b.WriteString("in {")
		for i, v := range c.Values {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.String())
		}
		b.WriteByte('}')
	case OpRange:
		b.WriteString("in [")
		b.WriteString(c.Value.String())
		b.WriteString(", ")
		b.WriteString(c.Hi.String())
		b.WriteByte(']')
	case OpExists:
		b.WriteString("exists")
	default:
		b.WriteString(c.Op.String())
		b.WriteByte(' ')
		b.WriteString(c.Value.String())
	}
	b.WriteByte(')')
	return b.String()
}

// key returns a canonical identity string for the constraint.
func (c Constraint) key() string {
	var b strings.Builder
	b.WriteString(c.Attr)
	b.WriteByte('|')
	b.WriteString(c.Op.String())
	b.WriteByte('|')
	switch c.Op {
	case OpIn:
		for _, v := range c.Values {
			b.WriteString(v.Key())
			b.WriteByte(',')
		}
	case OpRange:
		b.WriteString(c.Value.Key())
		b.WriteByte(',')
		b.WriteString(c.Hi.Key())
	case OpExists:
	default:
		b.WriteString(c.Value.Key())
	}
	return b.String()
}
