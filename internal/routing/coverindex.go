package routing

import (
	"slices"
	"strings"

	"repro/internal/filter"
	"repro/internal/message"
)

// CoverIndex incrementally maintains the covering-optimized forward set of
// a stream of filter deltas: the subset of currently tracked filters not
// covered by any other tracked filter (the maximal elements of the cover
// poset). It produces, for each Add and Remove, exactly the
// subscribe/retract delta that moves a neighbor from the previous minimal
// cover set to the next one — the incremental equivalent of running
// Covering.Reduce over the whole table and diffing.
//
// Filters are tracked by identity (a filterSet) with reference counts,
// mirroring how the same filter can back several routing-table entries;
// only the first Add and the last Remove of a filter change the poset. Two
// posting planes built from the match index's containers answer the two
// questions a delta asks, and every candidate they produce is verified
// with filter.Covers:
//
//   - the witness plane ("who drops g?") posts every tracked filter once,
//     under its access constraint (postRow, as the match index does), and
//     is probed with each of g's constraints for posted constraints that
//     may cover it (probeCoverers);
//   - the displacement plane ("whom does f drop?") posts every forwarded
//     filter under each of its constraints, so one probe with f's
//     cheapest constraint for the constraints it may cover finds them all
//     (probeCovered).
//
// Each covered filter records one witness, and each filter the filters it
// is the recorded witness of, so removing a filter re-examines only those.
//
// Mutually covering but non-identical filters (equal accepted sets, e.g.
// `x = 5` and `x in {5}`) are deterministically represented by the one
// first in canonical order (cmpFilterCanonical) — the same tie-break
// Covering.Reduce applies — so the incremental forward set is always
// identical to the batch one.
type CoverIndex struct {
	set       filterSet   // the tracked filters; a set slot indexes items too
	items     []coverItem // parallel to set.items
	wit       witnessPlane
	fwd       displacePlane
	probe     coverProbe
	forwarded int
	checks    uint64
}

// coverItem is the cover state of the tracked filter in the same set
// slot. The items whose recorded witness it is form a doubly linked list
// through their prevDep/nextDep, headed by its firstDep (-1 ends and
// empties it).
type coverItem struct {
	access                     int32 // the witness-plane posted constraint; -1 for the empty filter
	witness                    int32 // the recorded witness's slot; -1 while forwarded
	firstDep, prevDep, nextDep int32
	seen                       uint32 // probe stamp: a candidate is reported once per search
}

// witnessPlane holds every tracked filter under its access constraint. A
// posting carries the item's generation in gen, bumped when it is removed.
type witnessPlane struct {
	gen   []uint32
	attrs map[string]*attrIndex
	all   int32 // the tracked empty filter, which covers every filter; -1 if none
}

func (p *witnessPlane) rowLive(sg slotGen) bool { return p.gen[sg.slot] == sg.gen }
func (p *witnessPlane) attrAt(name string) *attrIndex {
	return p.attrs[name]
}
func (p *witnessPlane) attrDrop(name string) { delete(p.attrs, name) }
func (p *witnessPlane) attrFor(name string) *attrIndex {
	ai := p.attrs[name]
	if ai == nil {
		ai = &attrIndex{}
		p.attrs[name] = ai
	}
	return ai
}

// displacePlane holds every forwarded filter under each of its
// constraints. A posting carries the item's generation in gen, bumped
// when the item stops being forwarded.
type displacePlane struct {
	gen   []uint32
	attrs map[string]*fwdAttr
}

func (p *displacePlane) rowLive(sg slotGen) bool { return p.gen[sg.slot] == sg.gen }

// fwdAttr is one attribute of the displacement plane. Every constraint on
// the attribute is in all, and additionally wherever a probe of a
// constraint that may cover it looks (see probeCovered).
type fwdAttr struct {
	all postlist
	iv  ivSet    // intervals, and the members of = and in constraints as points
	nan postlist // = NaN, in-sets with a NaN member, NaN bounds
}

// coverProbe collects the distinct live candidates of one search.
type coverProbe struct {
	x     *CoverIndex
	live  postOwner // the plane being probed
	stamp uint32
	cands []int32
}

func (p *coverProbe) candidate(sg slotGen) {
	if !p.live.rowLive(sg) {
		return
	}
	if it := &p.x.items[sg.slot]; it.seen != p.stamp {
		it.seen = p.stamp
		p.cands = append(p.cands, sg.slot)
	}
}

func (p *coverProbe) scanned(sg slotGen) { p.candidate(sg) }

// CoverDelta is the forward-set change one Add or Remove produces:
// Forward lists filters that must newly be subscribed upstream, Retract
// filters whose upstream subscription is no longer needed. Both are in
// canonical order (sortFiltersByID).
type CoverDelta struct {
	Forward []filter.Filter
	Retract []filter.Filter
}

// Empty reports whether the delta changes nothing.
func (d CoverDelta) Empty() bool { return len(d.Forward) == 0 && len(d.Retract) == 0 }

// CoverIndexStats describes the index's shape and work.
type CoverIndexStats struct {
	// Items is the number of distinct tracked filters; Forwarded the size
	// of the current minimal cover set.
	Items, Forwarded int
	// CoverChecks counts full Covers evaluations.
	CoverChecks uint64
}

// NewCoverIndex returns an empty index.
func NewCoverIndex() *CoverIndex {
	x := &CoverIndex{
		wit: witnessPlane{attrs: make(map[string]*attrIndex), all: -1},
		fwd: displacePlane{attrs: make(map[string]*fwdAttr)},
	}
	x.probe.x = x
	return x
}

// Len returns the number of distinct tracked filters.
func (x *CoverIndex) Len() int { return x.set.len() }

// Stats returns a snapshot of the index counters.
func (x *CoverIndex) Stats() CoverIndexStats {
	return CoverIndexStats{Items: x.set.len(), Forwarded: x.forwarded, CoverChecks: x.checks}
}

// Forwarded returns the current minimal cover set in canonical order.
func (x *CoverIndex) Forwarded() []filter.Filter {
	out := make([]filter.Filter, 0, x.forwarded)
	for i := range x.items {
		if x.forwards(int32(i)) {
			out = append(out, x.filterAt(int32(i)))
		}
	}
	sortFiltersByID(out)
	return out
}

func (x *CoverIndex) filterAt(o int32) filter.Filter { return x.set.items[o].f }

// forwards reports whether slot o holds a forwarded filter.
func (x *CoverIndex) forwards(o int32) bool { return x.set.items[o].refs > 0 && x.items[o].witness < 0 }

// Add tracks one more reference to f and returns the forward-set delta:
// f itself if it enters the cover set, plus retractions for previously
// forwarded filters that f now covers. A covered newcomer can still
// retract forwarded filters — coverage by any tracked filter counts, not
// only by forwarded ones — which keeps the set identical to the batch
// removeCovered result.
func (x *CoverIndex) Add(f filter.Filter) CoverDelta {
	slot, fresh := x.set.add(f)
	if !fresh {
		return CoverDelta{}
	}
	if int(slot) == len(x.items) {
		x.items = append(x.items, coverItem{})
		x.wit.gen = append(x.wit.gen, 0)
		x.fwd.gen = append(x.fwd.gen, 0)
	}
	x.items[slot] = coverItem{access: -1, witness: -1, firstDep: -1}
	if f.Len() == 0 {
		x.wit.all = slot
	} else {
		access, _ := postRow(&x.wit, slotGen{slot: slot, gen: x.wit.gen[slot]}, f)
		x.items[slot].access = access
	}

	var d CoverDelta
	if w := x.witnessOf(slot); w >= 0 {
		x.depend(slot, w)
	} else {
		x.forward(slot)
		d.Forward = append(d.Forward, f)
	}
	for _, o := range x.displacedBy(slot) {
		if o != slot && x.items[o].witness < 0 && x.drops(slot, o) {
			x.unforward(o, x.filterAt(o))
			x.depend(o, slot)
			d.Retract = append(d.Retract, x.filterAt(o))
		}
	}
	sortFiltersByID(d.Retract)
	return d
}

// Remove drops one reference to f and, when it was the last, returns the
// forward-set delta: a retraction if f was forwarded, plus re-forwards
// for filters that only f kept covered. Removing an unknown filter is a
// no-op.
func (x *CoverIndex) Remove(f filter.Filter) CoverDelta {
	slot, held, last := x.set.remove(f)
	if !last {
		return CoverDelta{}
	}
	it := &x.items[slot]
	x.wit.gen[slot]++ // invalidates its witness-plane postings
	if held.Len() == 0 {
		x.wit.all = -1
	} else {
		unpostRow(&x.wit, held, int(it.access), -1)
	}

	var d CoverDelta
	if it.witness < 0 {
		x.unforward(slot, held)
		d.Retract = append(d.Retract, held)
	} else {
		x.undepend(slot)
	}
	// Only the filters that recorded f as their witness can have lost
	// their cover; every other covered filter's witness is still tracked.
	for o, next := it.firstDep, int32(-1); o >= 0; o = next {
		next = x.items[o].nextDep
		if w := x.witnessOf(o); w >= 0 {
			x.depend(o, w)
		} else {
			x.forward(o)
			d.Forward = append(d.Forward, x.filterAt(o))
		}
	}
	x.items[slot] = coverItem{}
	sortFiltersByID(d.Forward)
	return d
}

// depend records w as o's witness, at the head of w's dependents.
func (x *CoverIndex) depend(o, w int32) {
	it, wi := &x.items[o], &x.items[w]
	it.witness, it.prevDep, it.nextDep = w, -1, wi.firstDep
	if wi.firstDep >= 0 {
		x.items[wi.firstDep].prevDep = o
	}
	wi.firstDep = o
}

// undepend unlinks o from its witness's dependents.
func (x *CoverIndex) undepend(o int32) {
	it := &x.items[o]
	if it.prevDep >= 0 {
		x.items[it.prevDep].nextDep = it.nextDep
	} else {
		x.items[it.witness].firstDep = it.nextDep
	}
	if it.nextDep >= 0 {
		x.items[it.nextDep].prevDep = it.prevDep
	}
	it.witness = -1
}

// forward makes o part of the forward set, posting it in the displacement
// plane under every constraint.
func (x *CoverIndex) forward(o int32) {
	x.items[o].witness = -1
	x.forwarded++
	sg := slotGen{slot: o, gen: x.fwd.gen[o]}
	f := x.filterAt(o)
	for ci := 0; ci < f.Len(); ci++ {
		c := f.At(ci)
		fa := x.fwd.attrs[c.Attr]
		if fa == nil {
			fa = &fwdAttr{}
			x.fwd.attrs[c.Attr] = fa
		}
		fa.post(&x.fwd, &c, sg)
	}
}

// unforward takes o, which holds f, out of the forward set and the
// displacement plane.
func (x *CoverIndex) unforward(o int32, f filter.Filter) {
	x.fwd.gen[o]++
	x.forwarded--
	for ci := 0; ci < f.Len(); ci++ {
		c := f.At(ci)
		fa := x.fwd.attrs[c.Attr]
		fa.unpost(&x.fwd, &c)
		if fa.all.liveCount() == 0 {
			delete(x.fwd.attrs, c.Attr)
		}
	}
}

// search starts a probe of one plane: a fresh stamp, no candidates.
func (x *CoverIndex) search(plane postOwner) *coverProbe {
	p := &x.probe
	p.live, p.cands = plane, p.cands[:0]
	if p.stamp++; p.stamp == 0 { // wrapped: forget every old stamp
		for i := range x.items {
			x.items[i].seen = 0
		}
		p.stamp = 1
	}
	return p
}

// witnessOf returns a tracked filter that drops item g, or -1. A filter
// covering g has a constraint covering one of g's, its access constraint
// among them, so probing the witness plane with each of g's constraints
// finds every such filter.
func (x *CoverIndex) witnessOf(g int32) int32 {
	if a := x.wit.all; a >= 0 && a != g && x.drops(a, g) {
		return a
	}
	f := x.filterAt(g)
	p := x.search(&x.wit)
	for ci := 0; ci < f.Len(); ci++ {
		c := f.At(ci)
		p.cands = p.cands[:0]
		x.wit.attrs[c.Attr].probeCoverers(&c, p) // g itself keeps the entry alive
		for _, o := range p.cands {
			if o != g && x.drops(o, g) {
				return o
			}
		}
	}
	return -1
}

// displacedBy returns candidates for the forwarded filters item f drops,
// a superset of them. A filter f covers has, for each of f's constraints,
// a constraint that one covers, so one probe of the displacement plane
// with any constraint of f finds them all; it uses the one estimated to
// find fewest. The result aliases the probe buffer.
func (x *CoverIndex) displacedBy(f int32) []int32 {
	ff := x.filterAt(f)
	p := x.search(&x.fwd)
	if ff.Len() == 0 { // the empty filter covers every filter
		for i := range x.items {
			if x.forwards(int32(i)) {
				p.cands = append(p.cands, int32(i))
			}
		}
		return p.cands
	}
	best, bestCost := -1, 0.0
	for ci := 0; ci < ff.Len(); ci++ {
		c := ff.At(ci)
		fa := x.fwd.attrs[c.Attr]
		if fa == nil {
			return nil // no forwarded filter constrains c's attribute
		}
		if cost := fa.coveredCost(&c, x.wit.attrs[c.Attr]); best < 0 || cost < bestCost {
			best, bestCost = ci, cost
		}
	}
	c := ff.At(best)
	x.fwd.attrs[c.Attr].probeCovered(&c, p)
	return p.cands
}

// drops reports whether a's presence forces o out of the cover set: a
// strictly covers o, or the two cover each other and a comes first in
// canonical order.
func (x *CoverIndex) drops(a, o int32) bool {
	af, of := x.filterAt(a), x.filterAt(o)
	x.checks++
	if !af.Covers(of) {
		return false
	}
	x.checks++
	if !of.Covers(af) {
		return true
	}
	return cmpFilterCanonical(af, of) < 0 // mutual covers are rare: IDs are built on demand
}

// ---------------------------------------------------------------------------
// The two relation probes.
// ---------------------------------------------------------------------------

// probeCoverers reports every witness-plane posting whose constraint c may
// cover d (c.Covers(d) implies c is reported; more may be). By the
// operator of d:
//
//   - = and in: covering d means accepting every value of d, so a probe
//     with its first value finds the value-matching constraints, exactly
//     as a match would; prefix p: only a prefix of p (or exists, !=,
//     suffix, contains) covers it, and the probe with the string p finds
//     those;
//   - an interval: only an interval of its kind that contains it, found
//     by the containment probe (every interval of the kind, when a bound
//     is NaN);
//   - anything else: only the constraints no container can reason about.
//
// The exists and scan lists — presence covers everything, and !=, suffix
// and contains are evaluated by Covers alone — are visited every time.
func (ai *attrIndex) probeCoverers(d *filter.Constraint, s candSink) {
	switch d.Op {
	case filter.OpEQ, filter.OpPrefix:
		ai.probe(nil, d.Value, s)
		return
	case filter.OpIn:
		ai.probe(nil, d.Values[0], s)
		return
	}
	ai.exists.probe(s)
	for _, sg := range ai.scan.s {
		s.scanned(sg)
	}
	switch d.Op {
	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE, filter.OpRange:
		if q, ok := ordShape(d); ok {
			ai.iv.probeContaining(q, s)
		} else if orderedBoundNaN(d) {
			ai.iv.f.each(s)
		}
	}
}

// post registers constraint c of a forwarded filter; unpost mirrors it.
func (fa *fwdAttr) post(x postOwner, c *filter.Constraint, sg slotGen) {
	fa.all.add(sg)
	switch c.Op {
	case filter.OpEQ, filter.OpIn:
		if eachMember(c, func(v message.Value) {
			if q, ok := pointShape(v); ok {
				fa.iv.insert(x, q, sg)
			}
		}) {
			fa.nan.add(sg)
		}
	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE, filter.OpRange:
		if q, ok := ordShape(c); ok {
			fa.iv.insert(x, q, sg)
		} else if orderedBoundNaN(c) {
			fa.nan.add(sg)
		}
	}
}

func (fa *fwdAttr) unpost(x postOwner, c *filter.Constraint) {
	fa.all.removeLazy(x)
	switch c.Op {
	case filter.OpEQ, filter.OpIn:
		if eachMember(c, func(v message.Value) {
			if q, ok := pointShape(v); ok {
				fa.iv.removeLazy(x, q.kind)
			}
		}) {
			fa.nan.removeLazy(x)
		}
	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE, filter.OpRange:
		if q, ok := ordShape(c); ok {
			fa.iv.removeLazy(x, q.kind)
		} else if orderedBoundNaN(c) {
			fa.nan.removeLazy(x)
		}
	}
}

// eachMember visits the distinct non-NaN values of an = or in constraint
// and reports whether it has a NaN one.
func eachMember(c *filter.Constraint, fn func(v message.Value)) (nan bool) {
	if c.Op == filter.OpEQ {
		if isNaNValue(c.Value) {
			return true
		}
		fn(c.Value)
		return false
	}
	eachIndexableInMember(c, fn)
	return slices.ContainsFunc(c.Values, isNaNValue)
}

// probeCovered reports every displacement-plane posting whose constraint
// c may cover (c.Covers(d) implies d is reported). By the operator of c:
//
//   - = v covers only = v and in {v}; in S only = and in constraints
//     whose members are all in S. Both are found as points contained in
//     [v, v] for each member v (NaN members equal nothing and are
//     skipped); a bool member, which has no point, takes the whole list;
//   - an interval covers the intervals it contains and the = and in
//     constraints whose members it accepts, posted as points, found by
//     the contained-in probe — and, since Value.Compare orders NaN equal
//     to everything, possibly constraints naming NaN;
//   - anything else (exists, !=, prefix, suffix, contains, intervals the
//     lists cannot hold): every constraint on the attribute.
func (fa *fwdAttr) probeCovered(c *filter.Constraint, s candSink) {
	switch c.Op {
	case filter.OpEQ, filter.OpIn:
		pointless := false
		eachMember(c, func(v message.Value) {
			if q, ok := pointShape(v); ok {
				fa.iv.probeContainedIn(q, s)
			} else {
				pointless = true
			}
		})
		if !pointless {
			return
		}
	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE, filter.OpRange:
		if q, ok := ordShape(c); ok {
			fa.iv.probeContainedIn(q, s)
			fa.nan.probe(s)
			return
		}
	}
	fa.all.probe(s)
}

// coveredCost estimates how many candidates probeCovered(c) reports: the
// attribute's forwarded constraints, scaled for the typed probes by the
// witness plane's selectivity estimate of c (ai, whose estimator has seen
// every tracked filter's constraints on the attribute). A constraint that
// covers nothing costs less than any.
func (fa *fwdAttr) coveredCost(c *filter.Constraint, ai *attrIndex) float64 {
	n := float64(fa.all.liveCount())
	switch c.Op {
	case filter.OpEQ, filter.OpIn:
		return n * ai.selectivity(c)
	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE, filter.OpRange:
		if _, ok := ordShape(c); ok {
			return n * min(1, ai.selectivity(c))
		}
	}
	return n
}

// sortFiltersByID puts filters in canonical order, the package's
// deterministic wire order for administrative traffic (cmpFilterCanonical).
func sortFiltersByID(fs []filter.Filter) { slices.SortFunc(fs, cmpFilterCanonical) }

// cmpFilterCanonical is the canonical order: by rendered ID, and by
// cmpFilterIdent between distinct filters whose IDs collide. It is 0 only
// for identical filters, which it tells without rendering IDs.
func cmpFilterCanonical(a, b filter.Filter) int {
	if identFilterEqual(a, b) {
		return 0
	}
	if c := strings.Compare(a.ID(), b.ID()); c != 0 {
		return c
	}
	return cmpFilterIdent(a, b)
}

// diffCanonical merge-walks two lists in canonical order, returning the
// filters only in a and those only in b, both in canonical order.
func diffCanonical(a, b []filter.Filter) (onlyA, onlyB []filter.Filter) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		c := -1
		switch {
		case i == len(a):
			c = 1
		case j < len(b):
			c = cmpFilterCanonical(a[i], b[j])
		}
		switch {
		case c < 0:
			onlyA = append(onlyA, a[i])
			i++
		case c > 0:
			onlyB = append(onlyB, b[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
	return onlyA, onlyB
}
