package routing

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/filter"
	"repro/internal/message"
)

func idsOf(fs []filter.Filter) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.ID()
	}
	return out
}

func TestCoverIndexAddCoveredAndRetract(t *testing.T) {
	x := NewCoverIndex()
	wide := mkFilter(`p in [0, 100]`)
	narrow := mkFilter(`p in [10, 20]`)

	d := x.Add(narrow)
	if len(d.Forward) != 1 || !d.Forward[0].Equal(narrow) || len(d.Retract) != 0 {
		t.Fatalf("first add: %+v", d)
	}
	// A wider filter retracts the narrow one and forwards itself.
	d = x.Add(wide)
	if len(d.Forward) != 1 || !d.Forward[0].Equal(wide) {
		t.Fatalf("wide add forward: %+v", d)
	}
	if len(d.Retract) != 1 || !d.Retract[0].Equal(narrow) {
		t.Fatalf("wide add retract: %+v", d)
	}
	// A covered newcomer changes nothing.
	mid := mkFilter(`p in [5, 50]`)
	if d = x.Add(mid); !d.Empty() {
		t.Fatalf("covered add must be silent: %+v", d)
	}
	if got := x.Forwarded(); len(got) != 1 || !got[0].Equal(wide) {
		t.Fatalf("forwarded = %v", got)
	}
	// Removing the wide filter re-forwards the widest survivor chain:
	// mid covers narrow, so only mid comes back.
	d = x.Remove(wide)
	if len(d.Retract) != 1 || !d.Retract[0].Equal(wide) {
		t.Fatalf("remove retract: %+v", d)
	}
	if len(d.Forward) != 1 || !d.Forward[0].Equal(mid) {
		t.Fatalf("remove must re-forward mid only: %+v", d)
	}
	if x.Len() != 2 || len(x.Forwarded()) != 1 {
		t.Fatalf("len=%d forwarded=%v", x.Len(), x.Forwarded())
	}
}

func TestCoverIndexRefcount(t *testing.T) {
	x := NewCoverIndex()
	f := mkFilter(`a = 1`)
	if d := x.Add(f); len(d.Forward) != 1 {
		t.Fatal("first ref must forward")
	}
	if d := x.Add(f); !d.Empty() {
		t.Fatal("second ref must be silent")
	}
	if d := x.Remove(f); !d.Empty() {
		t.Fatal("first unref must be silent")
	}
	if d := x.Remove(f); len(d.Retract) != 1 {
		t.Fatal("last unref must retract")
	}
	if d := x.Remove(f); !d.Empty() {
		t.Fatal("removing an unknown filter must be a no-op")
	}
	if x.Len() != 0 {
		t.Fatalf("len = %d", x.Len())
	}
}

// TestCoverIndexCoveredWitnessRemoval exercises the non-transitive chain:
// a covered filter may be the only witness covering a third one, so its
// removal must re-examine (and here re-forward) the dependents even
// though it was never forwarded itself.
func TestCoverIndexCoveredWitnessRemoval(t *testing.T) {
	x := NewCoverIndex()
	a := mkFilter(`p in [0, 100]`)
	b := mkFilter(`p in [10, 50]`)
	c := mkFilter(`p in [20, 30]`)
	x.Add(a)
	x.Add(b) // covered by a
	x.Add(c) // covered by both
	if got := idsOf(x.Forwarded()); len(got) != 1 || got[0] != a.ID() {
		t.Fatalf("forwarded = %v", got)
	}
	// Removing covered b must not uncover c (a still covers it).
	if d := x.Remove(b); !d.Empty() {
		t.Fatalf("removing covered b with a alive: %+v", d)
	}
	x.Add(b)
	// Removing a re-forwards b only; c stays covered by b.
	d := x.Remove(a)
	if len(d.Forward) != 1 || !d.Forward[0].Equal(b) {
		t.Fatalf("remove a: %+v", d)
	}
}

// TestCoverIndexMutualCoverTieBreak pins the deterministic representative
// of an equivalence class: `x = 5` and `x in {5}` accept the same set, and
// the smaller canonical ID must win regardless of arrival order.
func TestCoverIndexMutualCoverTieBreak(t *testing.T) {
	eq := mkFilter(`x = 5`)
	in := mkFilter(`x in {5}`)
	if !eq.Covers(in) || !in.Covers(eq) {
		t.Skip("test premise: filters must mutually cover")
	}
	want := eq.ID()
	if in.ID() < want {
		want = in.ID()
	}
	for _, order := range [][2]filter.Filter{{eq, in}, {in, eq}} {
		x := NewCoverIndex()
		x.Add(order[0])
		x.Add(order[1])
		got := x.Forwarded()
		if len(got) != 1 || got[0].ID() != want {
			t.Errorf("order %v/%v: forwarded %v, want [%s]",
				order[0], order[1], idsOf(got), want)
		}
	}
}

// TestCoverIndexChecksOnlyProbeCandidates pins what the two posting planes
// save: filters on values or attributes no other filter can cover cost no
// Covers evaluation at all, while a real cover relation is still found and
// checked.
func TestCoverIndexChecksOnlyProbeCandidates(t *testing.T) {
	x := NewCoverIndex()
	for _, src := range []string{`a = 1`, `a = 2`, `b = 1`, `b = 2`, `c < 9`} {
		x.Add(mkFilter(src))
	}
	s := x.Stats()
	if s.Items != 5 || s.Forwarded != 5 {
		t.Fatalf("stats = %+v", s)
	}
	if s.CoverChecks != 0 {
		t.Errorf("CoverChecks = %d: no filter here can cover another, so no probe may report a candidate", s.CoverChecks)
	}
	// c < 9 contains c < 5: the witness probe finds it (one check each way
	// settles the strict cover), and c < 5 contains no forwarded filter.
	if d := x.Add(mkFilter(`c < 5`)); !d.Empty() {
		t.Fatalf("covered add must be silent: %+v", d)
	}
	if got := x.Stats().CoverChecks; got != 2 {
		t.Errorf("CoverChecks = %d after a covered add, want 2", got)
	}
	checkCoverInvariants(t, x)
}

// coverEdgeFilters is the alphabet of shapes the cover index's probes must
// get exactly right: the empty filter, nested, equal and touching
// intervals, half-open bounds on either side, x = 5 / x in {5} /
// x in [5, 5] and a float 5 that equals none of them, !=, exists, NaN as
// a bound, a value and an in member, prefixes extending each other and
// the empty prefix, string and bool intervals, two constraints on one
// attribute, filters lacking the other side's probe attribute, and two
// distinct filters whose rendered IDs collide (collidingPair).
func coverEdgeFilters() []filter.Filter {
	i, fl, s := message.Int, message.Float, message.String
	nan := fl(math.NaN())
	shapes := [][]filter.Constraint{
		{},
		{filter.Range("x", i(0), i(10))},
		{filter.Range("x", i(0), i(5))},
		{filter.Range("x", i(5), i(10))},
		{filter.Range("x", i(5), i(5))},
		{filter.GE("x", i(0))},
		{filter.GT("x", i(0))},
		{filter.LE("x", i(10))},
		{filter.LT("x", i(10))},
		{filter.GT("x", i(5))},
		{filter.LT("x", i(5))},
		{filter.EQ("x", i(5))},
		{filter.In("x", i(5))},
		{filter.In("x", i(5), i(7))},
		{filter.EQ("x", fl(5))},
		{filter.Range("x", fl(4.5), fl(5.5))},
		{filter.LE("x", fl(6))},
		{filter.NE("x", i(5))},
		{filter.NE("x", i(20))},
		{filter.Exists("x")},
		{filter.Range("x", nan, fl(5))},
		{filter.GE("x", nan)},
		{filter.LT("x", nan)},
		{filter.EQ("x", nan)},
		{filter.In("x", nan, fl(5))},
		{filter.GE("x", i(2)), filter.LE("x", i(8))},
		{filter.Prefix("s", "")},
		{filter.Prefix("s", "a")},
		{filter.Prefix("s", "ab")},
		{filter.Prefix("s", "abc")},
		{filter.EQ("s", s("abc"))},
		{filter.In("s", s("ab"), s("abd"))},
		{filter.Range("s", s("a"), s("b"))},
		{filter.Suffix("s", "c")},
		{filter.Contains("s", "b")},
		{filter.Exists("s")},
		{filter.Range("x", i(0), i(10)), filter.EQ("s", s("abc"))},
		{filter.Range("x", i(2), i(3)), filter.Prefix("s", "ab")},
		{filter.EQ("x", i(5)), filter.Exists("s")},
		{filter.EQ("b", message.Bool(true))},
		{filter.Range("b", message.Bool(false), message.Bool(true))},
		{filter.NE("b", message.Bool(false))},
	}
	out := make([]filter.Filter, len(shapes))
	for k, cs := range shapes {
		out[k] = filter.MustNew(cs...)
	}
	one, two := collidingPair()
	out = append(out, one, two)
	return out
}

// coverOracle drives a CoverIndex and checks every step against the batch
// removeCovered over the distinct tracked filters.
type coverOracle struct {
	t    testing.TB
	x    *CoverIndex
	refs map[string]int           // identity key -> references
	fs   map[string]filter.Filter // identity key -> filter
	fwd  []string                 // forwarded identity keys before the step, sorted
}

func newCoverOracle(t testing.TB) *coverOracle {
	return &coverOracle{t: t, x: NewCoverIndex(), refs: make(map[string]int), fs: make(map[string]filter.Filter)}
}

func (o *coverOracle) add(f filter.Filter) {
	o.refs[identKey(f)]++
	o.fs[identKey(f)] = f
	o.check("add "+f.String(), o.x.Add(f))
}

func (o *coverOracle) remove(f filter.Filter) {
	if k := identKey(f); o.refs[k] > 1 {
		o.refs[k]--
	} else {
		delete(o.refs, k)
		delete(o.fs, k)
	}
	o.check("remove "+f.String(), o.x.Remove(f))
}

func (o *coverOracle) check(op string, d CoverDelta) {
	o.t.Helper()
	distinct := make([]filter.Filter, 0, len(o.fs))
	for _, f := range o.fs {
		distinct = append(distinct, f)
	}
	want := sortedIDs(removeCovered(distinct))
	fwd := o.x.Forwarded()
	if got := sortedIDs(fwd); !reflect.DeepEqual(got, want) {
		o.t.Fatalf("%s: forwarded\n got  %v\n want %v", op, got, want)
	}
	wantFwd, wantRet := setDiff(want, o.fwd), setDiff(o.fwd, want)
	if gf, gr := sortedIDs(d.Forward), sortedIDs(d.Retract); !reflect.DeepEqual(gf, wantFwd) || !reflect.DeepEqual(gr, wantRet) {
		o.t.Fatalf("%s: delta +%v -%v, want +%v -%v", op, gf, gr, wantFwd, wantRet)
	}
	for _, fs := range [][]filter.Filter{fwd, d.Forward, d.Retract} {
		if !slices.IsSortedFunc(fs, cmpFilterCanonical) {
			o.t.Fatalf("%s: %v not in canonical order", op, idsOf(fs))
		}
	}
	o.fwd = want
	checkCoverInvariants(o.t, o.x)
}

// drain removes every tracked reference, in key order, and checks nothing
// is left behind.
func (o *coverOracle) drain() {
	ids := make([]string, 0, len(o.refs))
	for id := range o.refs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		for n := o.refs[id]; n > 0; n-- {
			o.remove(o.fs[id])
		}
	}
	checkCoverDrained(o.t, o.x)
}

// setDiff returns the sorted keys in a but not in b.
func setDiff(a, b []string) []string {
	out := []string{}
	for _, id := range a {
		if !slices.Contains(b, id) {
			out = append(out, id)
		}
	}
	return out
}

// checkCoverInvariants verifies the witness bookkeeping against its
// definition: every covered item's recorded witness is tracked and drops
// it, every dependent list points back at its entries, and the dependents
// are exactly the covered items.
func checkCoverInvariants(t testing.TB, x *CoverIndex) {
	t.Helper()
	deps, fwd := 0, 0
	for i := range x.items {
		it, f := &x.items[i], x.filterAt(int32(i))
		if x.set.items[i].refs == 0 {
			continue
		}
		for o, prev := it.firstDep, int32(-1); o >= 0; prev, o = o, x.items[o].nextDep {
			if oi := &x.items[o]; x.set.items[o].refs == 0 || oi.witness != int32(i) || oi.prevDep != prev {
				t.Fatalf("%s lists dependent slot %d, which points at witness %d (prev %d, want %d)",
					f, o, oi.witness, oi.prevDep, prev)
			}
			if deps++; deps > len(x.items) {
				t.Fatal("dependent lists cycle")
			}
		}
		if it.witness < 0 {
			fwd++
			continue
		}
		w := x.filterAt(it.witness)
		if x.set.items[it.witness].refs == 0 || !w.Covers(f) || (f.Covers(w) && cmpFilterCanonical(w, f) > 0) {
			t.Fatalf("%s records witness %s, which does not drop it", f, w)
		}
	}
	if fwd != x.forwarded || deps != x.Len()-fwd {
		t.Fatalf("%d forwarded (counter %d), %d dependents for %d covered", fwd, x.forwarded, deps, x.Len()-fwd)
	}
}

// checkCoverDrained asserts an index whose every filter was removed holds
// no item, dependent, attribute entry or match-all slot.
func checkCoverDrained(t testing.TB, x *CoverIndex) {
	t.Helper()
	if x.Len() != 0 || x.forwarded != 0 || x.wit.all != -1 || len(x.wit.attrs) != 0 || len(x.fwd.attrs) != 0 {
		t.Fatalf("not drained: %d items, %d forwarded, all=%d, %d witness attrs, %d displacement attrs",
			x.Len(), x.forwarded, x.wit.all, len(x.wit.attrs), len(x.fwd.attrs))
	}
	for i := range x.items {
		if it := &x.items[i]; x.set.items[i].refs != 0 || it.firstDep != 0 {
			t.Fatalf("slot %d not freed: %+v", i, it)
		}
	}
}

// TestCoverIndexOracle runs random add/remove churn over the edge-shape
// alphabet, with refcounts, checking the forwarded set, every delta and the
// witness bookkeeping after each step, then drains the index.
func TestCoverIndexOracle(t *testing.T) {
	pool := coverEdgeFilters()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := newCoverOracle(t)
		for step := 0; step < 600; step++ {
			f := pool[rng.Intn(len(pool))]
			if rng.Intn(5) < 3 {
				o.add(f)
			} else {
				o.remove(f) // also exercises removing an untracked filter
			}
		}
		o.drain()
	}
}

// FuzzCoverIndexOracle decodes bytes into an add/remove sequence over the
// edge-shape alphabet: the low bit of a byte picks the operation, the rest
// the filter.
func FuzzCoverIndexOracle(f *testing.F) {
	f.Add([]byte{0, 2, 4, 6, 8, 1, 3})
	f.Add([]byte{40, 42, 44, 46, 48, 50, 41, 43})
	f.Add([]byte{2, 4, 8, 22, 24, 3, 2, 5, 9})
	pool := coverEdgeFilters()
	f.Fuzz(func(t *testing.T, ops []byte) {
		o := newCoverOracle(t)
		for _, b := range ops {
			fl := pool[int(b>>1)%len(pool)]
			if b&1 == 0 {
				o.add(fl)
			} else {
				o.remove(fl)
			}
		}
		o.drain()
	})
}

// testOwner is a postOwner over a bare generation vector, for probing the
// posting containers directly.
type testOwner struct{ gen []uint32 }

func (o *testOwner) rowLive(sg slotGen) bool { return o.gen[sg.slot] == sg.gen }

// collectSink gathers the live slots a probe reports.
type collectSink struct {
	o   *testOwner
	got []int32
}

func (s *collectSink) candidate(sg slotGen) {
	if s.o.rowLive(sg) {
		s.got = append(s.got, sg.slot)
	}
}
func (s *collectSink) scanned(sg slotGen) { s.candidate(sg) }

// TestIvlistContainmentProbes checks probeContaining and probeContainedIn
// against a brute-force scan of the live intervals, through enough inserts
// and lazy deletes to build, merge and compact sorted runs. The domain is
// small so equal bounds, points and every open/closed combination meet.
func TestIvlistContainmentProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randIv := func() ivEntry[int64] {
		var e ivEntry[int64]
		e.lo, e.hi = int64(rng.Intn(30)), int64(rng.Intn(30))
		if e.lo > e.hi {
			e.lo, e.hi = e.hi, e.lo
		}
		if rng.Intn(5) > 0 {
			e.flags |= ivHasLo
			if rng.Intn(2) == 0 {
				e.flags |= ivLoInc
			}
		}
		if rng.Intn(5) > 0 {
			e.flags |= ivHasHi
			if rng.Intn(2) == 0 {
				e.flags |= ivHiInc
			}
		}
		return e
	}
	own := &testOwner{}
	var l ivlist[int64]
	var live []ivEntry[int64]
	for step := 0; step < 3000; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			own.gen[live[k].sg.slot]++
			l.removeLazy(own)
			live = slices.Delete(live, k, k+1)
		} else {
			e := randIv()
			e.sg = slotGen{slot: int32(len(own.gen))}
			own.gen = append(own.gen, 0)
			l.insert(own, e)
			live = append(live, e)
		}
		if step%10 != 0 {
			continue
		}
		q := randIv()
		var wantIn, wantOut []int32
		for k := range live {
			if live[k].contains(&q) {
				wantIn = append(wantIn, live[k].sg.slot)
			}
			if q.contains(&live[k]) {
				wantOut = append(wantOut, live[k].sg.slot)
			}
		}
		for _, c := range []struct {
			name  string
			probe func(ivEntry[int64], candSink)
			want  []int32
		}{{"containing", l.probeContaining, wantIn}, {"contained-in", l.probeContainedIn, wantOut}} {
			s := &collectSink{o: own}
			c.probe(q, s)
			slices.Sort(s.got)
			slices.Sort(c.want)
			if !slices.Equal(s.got, c.want) {
				t.Fatalf("step %d: %s %+v over %d runs + %d pending:\n got  %v\n want %v",
					step, c.name, q, len(l.runs), len(l.pend), s.got, c.want)
			}
		}
	}
	if len(l.runs) == 0 {
		t.Fatal("no sorted run was built: the test exercised only the pending buffer")
	}
}
