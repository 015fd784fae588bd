package filter

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/message"
)

// Filter is a conjunction of attribute constraints. The zero Filter has no
// constraints and matches every notification ("true"); it models the
// flooding subscription "everything, everywhere, all the time".
//
// Filters are immutable after construction. Every constructor precomputes
// the cover signature (see signature.go) that lets Covers reject most
// non-covering pairs without walking the constraint lists.
type Filter struct {
	cs  []Constraint
	sig sig
}

// New builds a filter from the given constraints, validating each. The
// constraints are stored in a canonical order (by attribute, then identity)
// so that equal filters have equal renderings and IDs.
func New(cs ...Constraint) (Filter, error) {
	cp := make([]Constraint, len(cs))
	copy(cp, cs)
	for i, c := range cp {
		if err := c.Validate(); err != nil {
			return Filter{}, fmt.Errorf("constraint %d %s: %w", i, c, err)
		}
	}
	sort.Slice(cp, func(i, j int) bool {
		if cp[i].Attr != cp[j].Attr {
			return cp[i].Attr < cp[j].Attr
		}
		return cp[i].key() < cp[j].key()
	})
	return Filter{cs: cp, sig: computeSig(cp)}, nil
}

// MustNew is like New but panics on invalid constraints; it is intended for
// statically-known filters in tests and examples.
func MustNew(cs ...Constraint) Filter {
	f, err := New(cs...)
	if err != nil {
		panic(err)
	}
	return f
}

// MatchAll returns the filter with no constraints, which accepts every
// notification.
func MatchAll() Filter { return Filter{} }

// IsMatchAll reports whether the filter has no constraints.
func (f Filter) IsMatchAll() bool { return len(f.cs) == 0 }

// Len returns the number of constraints.
func (f Filter) Len() int { return len(f.cs) }

// At returns the i-th constraint in canonical order without copying the
// list (the routing index iterates constraints on its maintenance path).
// The returned constraint shares the filter's backing storage; callers
// must not mutate its Values slice.
func (f Filter) At(i int) Constraint { return f.cs[i] }

// Constraints returns a copy of the constraint list.
func (f Filter) Constraints() []Constraint {
	out := make([]Constraint, len(f.cs))
	copy(out, f.cs)
	return out
}

// ConstraintsOn returns the constraints on the given attribute.
func (f Filter) ConstraintsOn(attr string) []Constraint {
	var out []Constraint
	for _, c := range f.cs {
		if c.Attr == attr {
			out = append(out, c)
		}
	}
	return out
}

// Attrs returns the sorted set of attributes the filter constrains.
func (f Filter) Attrs() []string {
	seen := make(map[string]bool, len(f.cs))
	out := make([]string, 0, len(f.cs))
	for _, c := range f.cs {
		if !seen[c.Attr] {
			seen[c.Attr] = true
			out = append(out, c.Attr)
		}
	}
	return out
}

// Matches reports whether the filter accepts the notification: every
// constraint must hold.
func (f Filter) Matches(n message.Notification) bool { return f.MatchesExcept(n, -1, -1) }

// MatchesExcept reports whether every constraint other than the skipA-th
// and the skipB-th (in At order) accepts the notification; a skip outside
// [0, Len()) skips nothing. The routing match index calls it on a row
// whose posted constraints — one, or a pair — a posting-list probe has
// already proved satisfied.
func (f Filter) MatchesExcept(n message.Notification, skipA, skipB int) bool {
	for i := range f.cs {
		if i != skipA && i != skipB && !f.cs[i].matches(n) {
			return false
		}
	}
	return true
}

// Equal reports structural equality (after canonicalization).
func (f Filter) Equal(g Filter) bool {
	if len(f.cs) != len(g.cs) {
		return false
	}
	for i := range f.cs {
		if !f.cs[i].Equal(g.cs[i]) {
			return false
		}
	}
	return true
}

// Covers reports whether f accepts a superset of the notifications
// accepted by g (Section 2.2: the covering routing strategy). The empty
// filter covers everything. The test is sound; for each constraint of f
// there must be a constraint of g on the same attribute that it covers.
// The precomputed signatures settle most non-covering pairs in O(1)
// before the constraint walk.
func (f Filter) Covers(g Filter) bool {
	if !f.canCover(&g) {
		return false
	}
	return f.coversFull(g)
}

// coversFull is the constraint-walking cover test behind Covers, split out
// so the signature fast path can be property-tested against it.
func (f Filter) coversFull(g Filter) bool {
	for _, c := range f.cs {
		covered := false
		for _, d := range g.cs {
			if d.Attr != c.Attr {
				continue
			}
			if c.Covers(d) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// Overlaps reports whether f and g can accept a common notification. The
// test is conservative (may report true for disjoint filters with exotic
// constraint combinations), which is the safe direction for routing.
func (f Filter) Overlaps(g Filter) bool {
	for _, c := range f.cs {
		for _, d := range g.cs {
			if c.Attr == d.Attr && !c.Overlaps(d) {
				return false
			}
		}
	}
	return true
}

// ID returns a canonical identity string for the filter, usable as a map
// key in routing tables.
func (f Filter) ID() string {
	if len(f.cs) == 0 {
		return "*"
	}
	parts := make([]string, len(f.cs))
	for i, c := range f.cs {
		parts[i] = c.key()
	}
	return strings.Join(parts, "&")
}

// String renders the filter in the paper's notation:
// (service = "parking"), (cost < 3). The empty filter renders as "(true)".
func (f Filter) String() string {
	if len(f.cs) == 0 {
		return "(true)"
	}
	parts := make([]string, len(f.cs))
	for i, c := range f.cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, ", ")
}

// With returns a new filter with an additional constraint.
func (f Filter) With(c Constraint) (Filter, error) {
	return New(append(f.Constraints(), c)...)
}

// Without returns a new filter with every constraint on attr removed.
func (f Filter) Without(attr string) Filter {
	out := make([]Constraint, 0, len(f.cs))
	for _, c := range f.cs {
		if c.Attr != attr {
			out = append(out, c)
		}
	}
	return Filter{cs: out, sig: computeSig(out)}
}

// Replace returns a new filter where all constraints on c.Attr are
// replaced by c.
func (f Filter) Replace(c Constraint) (Filter, error) {
	return f.Without(c.Attr).With(c)
}
