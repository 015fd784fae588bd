package routing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/wire"
)

// pendingIntervals counts the entries waiting in the pending buffers of the
// match index's interval lists, attribute and pair lists alike.
func pendingIntervals(x *matchIndex) int {
	n := 0
	count := func(v *ivSet) { n += len(v.i.pend) + len(v.f.pend) + len(v.s.pend) }
	for _, a := range x.attrs {
		count(&a.ai.iv)
		for i := int32(0); i < a.ai.pairs.cap(); i++ {
			if sl := a.ai.pairs.slots.at(i); sl.kind != message.KindInvalid {
				count(&sl.list.iv)
			}
		}
	}
	return n
}

// promoteFilter draws a filter posted under an interval list: a range on
// the int attribute i, the float attribute f or the string attribute s,
// alone or paired with k = "x".
func promoteFilter(r *rand.Rand) filter.Filter {
	var c filter.Constraint
	switch r.Intn(3) {
	case 0:
		lo := int64(r.Intn(40))
		c = filter.Range("i", message.Int(lo), message.Int(lo+int64(r.Intn(10))))
	case 1:
		lo := float64(r.Intn(40)) / 2
		c = filter.Range("f", message.Float(lo), message.Float(lo+float64(r.Intn(10))/2))
	default:
		lo := string(rune('a' + r.Intn(20)))
		c = filter.Range("s", message.String(lo), message.String(lo+"zz"))
	}
	if r.Intn(2) == 0 {
		return filter.MustNew(filter.EQ("k", message.String("x")), c)
	}
	return filter.MustNew(c)
}

// promoteNotification carries a value for every list promoteFilter posts
// under; f is NaN, the inclusive-bounds probe, when nan is set.
func promoteNotification(r *rand.Rand, nan bool) message.Notification {
	f := message.Float(float64(r.Intn(50)) / 2)
	if nan {
		f = message.Float(math.NaN())
	}
	return message.New(map[string]message.Value{
		"i": message.Int(int64(r.Intn(50))),
		"f": f,
		"s": message.String(string(rune('a'+r.Intn(22))) + "m"),
		"k": message.String("x"),
	})
}

// TestProbePromotesPending pins probe-time promotion: inserts leave entries
// in the interval lists' pending buffers, and one match probe moves every
// one it reaches into the sorted runs — on the NaN-inclusive path too.
func TestProbePromotesPending(t *testing.T) {
	for _, nan := range []bool{false, true} {
		t.Run(fmt.Sprintf("nan=%v", nan), func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			tbl := NewTable()
			for i := 0; i < 300; i++ {
				tbl.Add(Entry{Filter: promoteFilter(r), Hop: wire.BrokerHop("b"), Client: "c", SubID: wire.SubID(fmt.Sprint(i))})
			}
			if pendingIntervals(tbl.idx) == 0 {
				t.Fatal("no entry pending after the inserts: nothing to promote")
			}
			n := promoteNotification(r, nan)
			if got, want := tbl.MatchingEntries(n, wire.Hop{}), tbl.MatchingEntriesLinear(n, wire.Hop{}); !reflect.DeepEqual(got, want) {
				t.Fatalf("MatchingEntries(%s)\nindex:  %v\nlinear: %v", n, got, want)
			}
			if p := pendingIntervals(tbl.idx); p != 0 {
				t.Fatalf("%d entries still pending after a probe of every list", p)
			}
		})
	}
}

// TestProbePromotionParity interleaves inserts, removals and probes, so
// promotions merge runs of every size with live, removed and pending
// entries, and holds every probe to Filter.Matches.
func TestProbePromotionParity(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		tbl := NewTable()
		var live []Entry
		for step := 0; step < 2000; step++ {
			switch op := r.Intn(10); {
			case op < 6:
				e := Entry{Filter: promoteFilter(r), Hop: wire.BrokerHop("b"), Client: "c", SubID: wire.SubID(fmt.Sprint(step))}
				tbl.Add(e)
				live = append(live, e)
			case op < 8 && len(live) > 0:
				i := r.Intn(len(live))
				tbl.Remove(live[i])
				live = append(live[:i], live[i+1:]...)
			default:
				n := promoteNotification(r, r.Intn(4) == 0)
				if got, want := tbl.MatchingEntries(n, wire.Hop{}), tbl.MatchingEntriesLinear(n, wire.Hop{}); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: MatchingEntries(%s)\nindex:  %v\nlinear: %v", seed, step, n, got, want)
				}
			}
		}
	}
}
