package routing

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/wire"
)

// fuzzProgram decodes fuzz bytes into table operations; an exhausted input
// reads as zeros.
type fuzzProgram struct {
	b []byte
	i int
}

func (p *fuzzProgram) next() int {
	if p.i >= len(p.b) {
		return 0
	}
	p.i++
	return int(p.b[p.i-1])
}

func (p *fuzzProgram) done() bool { return p.i >= len(p.b) }

var fuzzAttrs = []string{"a", "b", "c"}

// value decodes one operand or notification value: ints, floats with NaN
// and both zeros among them, strings that prefix one another, and bools.
func (p *fuzzProgram) value() message.Value {
	b := p.next()
	return valueOf(b&3, b>>2%8)
}

// bounds decodes an interval's two bounds, of one orderable kind.
func (p *fuzzProgram) bounds() (lo, hi message.Value) {
	b := p.next()
	kind := b & 3 % 3
	return valueOf(kind, b>>2%8), valueOf(kind, b>>5)
}

func valueOf(kind, k int) message.Value {
	switch kind {
	case 0:
		return message.Int(int64(k) - 2)
	case 1:
		switch k {
		case 6:
			return message.Float(math.Copysign(0, -1))
		case 7:
			return message.Float(math.NaN())
		}
		return message.Float(float64(k)/2 - 1)
	case 2:
		return message.String([]string{"", "p", "pa", "par", "park", "pz", "x", "xy"}[k])
	}
	return message.Bool(k&1 == 0)
}

// constraint decodes one constraint. Equalities and intervals come up
// most, so that rows pairing one with the other on another attribute —
// or on the same attribute, twice — are common.
func (p *fuzzProgram) constraint() filter.Constraint {
	op, attr := p.next(), fuzzAttrs[p.next()%len(fuzzAttrs)]
	switch op % 10 {
	case 0, 1, 2:
		return filter.EQ(attr, p.value())
	case 3, 4:
		lo, hi := p.bounds()
		return filter.Range(attr, lo, hi)
	case 5:
		v, _ := p.bounds()
		return []filter.Constraint{filter.LT(attr, v), filter.LE(attr, v), filter.GT(attr, v), filter.GE(attr, v)}[op/10%4]
	case 6: // members as decoded: duplicates and NaN stay
		vs := make([]message.Value, 1+op/10%4)
		for i := range vs {
			vs[i] = p.value()
		}
		return filter.Constraint{Attr: attr, Op: filter.OpIn, Values: vs}
	case 7:
		return filter.Prefix(attr, []string{"", "p", "pa", "x"}[op/10%4])
	case 8:
		if op/10%2 == 0 {
			return filter.Exists(attr)
		}
		return filter.NE(attr, p.value())
	}
	return filter.Suffix(attr, []string{"k", "y"}[op/10%2])
}

func (p *fuzzProgram) entry() (Entry, bool) {
	cs := make([]filter.Constraint, p.next()%4)
	for i := range cs {
		cs[i] = p.constraint()
	}
	f, err := filter.New(cs...)
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Filter: f, Hop: p.hop()}
	if o := p.next() % 3; o > 0 {
		e.Client, e.SubID = wire.ClientID([]string{"", "c0", "c1"}[o]), "s"
	}
	return e, true
}

func (p *fuzzProgram) hop() wire.Hop {
	switch p.next() % 4 {
	case 0:
		return wire.ClientHop("c0")
	case 1:
		return wire.ClientHop("c1")
	case 2:
		return wire.BrokerHop("b0")
	}
	return wire.BrokerHop("b1")
}

func (p *fuzzProgram) notification() message.Notification {
	attrs := map[string]message.Value{}
	present := p.next()
	for i, a := range fuzzAttrs {
		if present&(1<<i) != 0 {
			attrs[a] = p.value()
		}
	}
	return message.New(attrs)
}

// bruteMatches is Filter.Matches over the shadow list, in canonical order.
func bruteMatches(live []Entry, n message.Notification, from wire.Hop) []Entry {
	var out []Entry
	for _, e := range live {
		if e.Hop != from && e.Filter.Matches(n) {
			out = append(out, e)
		}
	}
	sortEntriesCanonical(out)
	return out
}

// FuzzMatchIndexParity decodes bytes into adds, removes and matches over
// filters of every operator class, and holds the index to Filter.Matches
// over a shadow list: MatchingEntries equal to it, and EachRoute a route
// through it (see checkRoute).
func FuzzMatchIndexParity(f *testing.F) {
	f.Add([]byte{0, 2, 0, 1, 8, 2, 0, 2, 5, 9, 6, 7, 2, 4, 1})
	f.Add([]byte{1, 3, 0, 1, 16, 3, 1, 32, 36, 2, 0, 5, 6, 3, 1, 36, 6, 6, 3, 2, 16})
	f.Add([]byte{2, 3, 2, 0, 30, 3, 1, 3, 7, 1, 0, 0, 1, 5, 0, 7, 3, 31, 2, 6, 7, 3, 31, 0, 0})
	// Pair rows: a = "p" / a = "pa" / a = 1 with an interval on b (int,
	// float), on broker and client hops; matches; a removal.
	f.Add([]byte{
		0, 2, 0, 0, 6, 3, 1, 224, 2, 0,
		0, 2, 0, 0, 10, 3, 1, 224, 3, 0,
		0, 2, 0, 0, 12, 4, 1, 165, 1, 1,
		5, 3, 6, 16, 0,
		6, 3, 6, 16, 0, 6, 3, 10, 16, 2, 6, 3, 12, 5, 3,
		4, 0, 6, 3, 6, 16, 0,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := &fuzzProgram{b: ops}
		tbl := NewTable()
		var live []Entry
		for step := 0; !p.done(); step++ {
			switch p.next() % 8 {
			case 0, 1, 2, 3:
				e, ok := p.entry()
				if !ok {
					continue
				}
				added, dup := tbl.Add(e), false
				for _, le := range live {
					dup = dup || cmpEntryCanonical(le, e) == 0
				}
				if added == dup {
					t.Fatalf("step %d: Add(%v) = %v with the entry already present = %v", step, e, added, dup)
				}
				if added {
					live = append(live, e)
				}
			case 4:
				if len(live) == 0 {
					continue
				}
				i := p.next() % len(live)
				if !tbl.Remove(live[i]) {
					t.Fatalf("step %d: Remove(%v) of a live entry failed", step, live[i])
				}
				live = append(live[:i], live[i+1:]...)
			default: // 5, 6, 7: match
				n, from := p.notification(), p.hop()
				want := bruteMatches(live, n, from)
				got := tbl.MatchingEntries(n, from)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: MatchingEntries(%s, %s)\nindex: %v\nbrute: %v", step, n, from, got, want)
				}
				checkRoute(t, step, n, from, collectRoute(t, tbl.EachRoute, n, from), want)
			}
			if tbl.Len() != len(live) {
				t.Fatalf("step %d: table has %d entries, shadow %d", step, tbl.Len(), len(live))
			}
		}
		for _, e := range live {
			tbl.Remove(e)
		}
		if st := tbl.IndexStats(); st.Entries != 0 || st.Postings != 0 || st.Attrs != 0 {
			t.Fatalf("after drain IndexStats = %+v", st)
		}
	})
}
