package routing

import (
	"slices"
	"sort"

	"repro/internal/filter"
)

// This file implements Merging as a real incremental plane (Section 2.2's
// merging-based routing), replacing the former batch fixpoint fallback.
//
// The key to incrementality is locality: instead of a global greedy
// fixpoint over all tracked filters (whose result can change arbitrarily
// when one input moves), every input filter is assigned to exactly one
// *merge group*, determined by the filter alone:
//
//   - its merge attribute — the first attribute (in the filter's canonical
//     order) carrying exactly one interval constraint, falling back to the
//     first with a finite-set/presence constraint;
//   - the rest of the filter, its *base*, identified by canonical ID.
//
// Filters sharing (attribute, base) agree everywhere except on one
// attribute, the precondition for a perfect merge, so the group's
// forwarded representation is the base combined with the canonical union
// of the members' constraints on the merge attribute. Filters with no
// mergeable attribute form singleton passthrough groups. A membership
// change only ever recomputes its own group — the rest of the plane is
// untouched — and unsubscribing out of a group recomputes the exact
// pre-merge representation of the remaining members (unmerge).
//
// Group emissions are refcounted globally — nothing rules out distinct
// groups producing byte-identical emissions, and the cover index must see
// each distinct filter exactly once — and fed through a private
// CoverIndex, so the forwarded set is the cover-minimal subset of the
// merged representations: exactly removeCovered(groupMerge(...)), the
// batch Merging.Reduce, maintained per-delta.

// mergeableOp reports whether a constraint can anchor a merge group:
// only the interval operators. Adjacent and overlapping ranges are the
// paper's merging material, union intervals are stable under membership
// churn, and their unions are always representable. Finite-set unions
// (EQ/In) are deliberately excluded: measured on the churn scenario they
// shrink tables slightly but re-emit a changed `in {...}` union on almost
// every relocation, costing more administrative traffic than plain
// covering saves. Negations and string patterns stay in the base and are
// handled by covering alone.
func mergeableOp(op filter.Op) bool {
	switch op {
	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE, filter.OpRange:
		return true
	default:
		return false
	}
}

// mergeAttr picks the filter's merge attribute: the first attribute (in
// canonical constraint order) carrying exactly one interval constraint.
// The choice is a deterministic function of the filter alone, which is
// what keeps group assignment stable under churn.
func mergeAttr(f filter.Filter) (string, bool) {
	n := f.Len()
	for i := 0; i < n; {
		c := f.At(i)
		j := i + 1
		for j < n && f.At(j).Attr == c.Attr {
			j++
		}
		if j-i == 1 && mergeableOp(c.Op) {
			return c.Attr, true
		}
		i = j
	}
	return "", false
}

// mergeGroupKey returns the filter's merge attribute (empty for
// passthrough filters) and its group key: merge attribute plus the
// canonical ID of the filter without it. Filters with equal keys agree on
// everything except the merge attribute.
func mergeGroupKey(f filter.Filter) (cattr, key string) {
	a, ok := mergeAttr(f)
	if !ok {
		return "", "p\x00" + f.ID()
	}
	return a, "m\x00" + a + "\x00" + f.Without(a).ID()
}

// mergeConstraintSet reduces a multiset of same-attribute constraints to
// the canonical unmergeable representation of their union: sort
// canonically, drop duplicates, and greedily merge the leftmost mergeable
// pair until none remains. The result is a deterministic function of the
// input set.
func mergeConstraintSet(cs []filter.Constraint) []filter.Constraint {
	out := slices.Clone(cs)
	for {
		slices.SortFunc(out, cmpConstraintIdent)
		out = slices.CompactFunc(out, func(a, b filter.Constraint) bool {
			return cmpConstraintIdent(a, b) == 0
		})
		merged := false
	scan:
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if m, ok := filter.MergeConstraints(out[i], out[j]); ok {
					out[i] = m
					out = slices.Delete(out, j, j+1)
					merged = true
					break scan
				}
			}
		}
		if !merged {
			return out
		}
	}
}

// groupEmit computes the forwarded representation of one merge group:
// each canonical union piece of the members' merge-attribute constraints,
// attached to the shared base. Members must be sorted by ID. A group that
// cannot represent its union (With rejecting a merged constraint — not
// reachable for the mergeable operator classes, kept as a safety net)
// falls back to emitting its members verbatim, which is always sound.
func groupEmit(cattr string, members []filter.Filter) []filter.Filter {
	if len(members) == 1 {
		return []filter.Filter{members[0]}
	}
	cs := make([]filter.Constraint, 0, len(members))
	for _, m := range members {
		on := m.ConstraintsOn(cattr)
		if len(on) != 1 {
			return slices.Clone(members)
		}
		cs = append(cs, on[0])
	}
	cs = mergeConstraintSet(cs)
	base := members[0].Without(cattr)
	out := make([]filter.Filter, 0, len(cs))
	for _, c := range cs {
		m, err := base.With(c)
		if err != nil {
			return slices.Clone(members)
		}
		out = append(out, m)
	}
	sortFiltersByID(out)
	return out
}

// groupMerge is the batch form of the merging plane: partition the
// (already deduplicated) filters into merge groups and emit each group's
// representation, in deterministic group-key order. Merging.Reduce is
// removeCovered of this; the incremental mergePlane maintains the same
// set per-delta.
func groupMerge(fs []filter.Filter) []filter.Filter {
	groups := make(map[string][]filter.Filter)
	cattrs := make(map[string]string)
	var keys []string
	for _, f := range fs {
		ca, key := mergeGroupKey(f)
		if _, ok := groups[key]; !ok {
			keys = append(keys, key)
			cattrs[key] = ca
		}
		groups[key] = append(groups[key], f)
	}
	sort.Strings(keys)
	var out []filter.Filter
	for _, k := range keys {
		members := groups[k]
		sortFiltersByID(members)
		out = append(out, groupEmit(cattrs[k], members)...)
	}
	return out
}

// mergeGroup is the live state of one merge group.
type mergeGroup struct {
	cattr   string
	members map[string]filter.Filter // distinct input ID -> filter
	emits   map[string]filter.Filter // current emission ID -> filter
	covered int                      // members whose ID is not emitted
}

// netEnt accumulates the net forward-set movement of one filter ID across
// the several cover-index operations a single plane delta can trigger: a
// retired emission's retraction can re-forward a filter a fresh emission
// then covers again, and the wire must only see the net effect.
type netEnt struct {
	n int
	f filter.Filter
}

func accumulate(net map[string]netEnt, d CoverDelta) {
	for _, f := range d.Forward {
		e := net[f.ID()]
		e.n++
		e.f = f
		net[f.ID()] = e
	}
	for _, f := range d.Retract {
		e := net[f.ID()]
		e.n--
		e.f = f
		net[f.ID()] = e
	}
}

func netDelta(net map[string]netEnt) CoverDelta {
	var d CoverDelta
	for _, e := range net {
		switch {
		case e.n > 0:
			d.Forward = append(d.Forward, e.f)
		case e.n < 0:
			d.Retract = append(d.Retract, e.f)
		}
	}
	sortFiltersByID(d.Forward)
	sortFiltersByID(d.Retract)
	return d
}

// mergePlane implements Merging incrementally: inputs are refcounted by
// canonical ID, distinct inputs live in merge groups, group emissions are
// refcounted globally and cover-minimized through a private CoverIndex.
// Every delta touches one group and the emissions it shares.
type mergePlane struct {
	refs    map[string]int           // input ID -> multiset refcount
	fs      map[string]filter.Filter // input ID -> filter
	keyOf   map[string]string        // input ID -> group key
	groups  map[string]*mergeGroup   // group key -> state
	emitRef map[string]int           // emission ID -> #groups emitting it
	idx     *CoverIndex              // cover-minimal set over emissions

	active   int    // groups currently suppressing >= 1 member
	covered  int    // members suppressed behind a merged emission
	unmerges uint64 // removals that re-expanded a merged emission
}

func newMergePlane() *mergePlane {
	return &mergePlane{
		refs:    make(map[string]int),
		fs:      make(map[string]filter.Filter),
		keyOf:   make(map[string]string),
		groups:  make(map[string]*mergeGroup),
		emitRef: make(map[string]int),
		idx:     NewCoverIndex(),
	}
}

func (p *mergePlane) add(f filter.Filter) CoverDelta {
	id := f.ID()
	if p.refs[id]++; p.refs[id] > 1 {
		return CoverDelta{} // distinct input set unchanged
	}
	p.fs[id] = f
	cattr, key := mergeGroupKey(f)
	p.keyOf[id] = key
	g := p.groups[key]
	if g == nil {
		g = &mergeGroup{
			cattr:   cattr,
			members: make(map[string]filter.Filter, 1),
			emits:   make(map[string]filter.Filter, 1),
		}
		p.groups[key] = g
	}
	g.members[id] = f
	net := make(map[string]netEnt)
	p.refreshGroup(key, g, net)
	return netDelta(net)
}

func (p *mergePlane) remove(f filter.Filter) CoverDelta {
	id := f.ID()
	if p.refs[id] == 0 {
		return CoverDelta{}
	}
	if p.refs[id]--; p.refs[id] > 0 {
		return CoverDelta{}
	}
	delete(p.refs, id)
	delete(p.fs, id)
	key := p.keyOf[id]
	delete(p.keyOf, id)
	g := p.groups[key]
	delete(g.members, id)
	net := make(map[string]netEnt)
	if p.refreshGroup(key, g, net) > 0 {
		p.unmerges++ // narrower filters had to be re-forwarded
	}
	return netDelta(net)
}

// refreshGroup recomputes one group's emissions after a membership change
// and routes the emission diff through the global emission refcounts and
// the cover index, accumulating the net forward-set movement in net. It
// returns the number of emission IDs new to the group (the unmerge signal
// on the remove path) and deletes the group when its last member left.
func (p *mergePlane) refreshGroup(key string, g *mergeGroup, net map[string]netEnt) int {
	newEmits := make(map[string]filter.Filter, len(g.emits))
	if len(g.members) > 0 {
		members := make([]filter.Filter, 0, len(g.members))
		for _, m := range g.members {
			members = append(members, m)
		}
		sortFiltersByID(members)
		for _, e := range groupEmit(g.cattr, members) {
			newEmits[e.ID()] = e
		}
	}
	var retired, fresh []filter.Filter
	for id, e := range g.emits {
		if _, ok := newEmits[id]; !ok {
			retired = append(retired, e)
		}
	}
	for id, e := range newEmits {
		if _, ok := g.emits[id]; !ok {
			fresh = append(fresh, e)
		}
	}
	sortFiltersByID(retired)
	sortFiltersByID(fresh)
	for _, e := range retired {
		id := e.ID()
		if p.emitRef[id]--; p.emitRef[id] == 0 {
			delete(p.emitRef, id)
			accumulate(net, p.idx.Remove(e))
		}
	}
	for _, e := range fresh {
		id := e.ID()
		if p.emitRef[id]++; p.emitRef[id] == 1 {
			accumulate(net, p.idx.Add(e))
		}
	}
	cov := 0
	for id := range g.members {
		if _, ok := newEmits[id]; !ok {
			cov++
		}
	}
	p.covered += cov - g.covered
	if g.covered > 0 {
		p.active--
	}
	if cov > 0 {
		p.active++
	}
	g.covered = cov
	g.emits = newEmits
	if len(g.members) == 0 {
		delete(p.groups, key)
	}
	return len(fresh)
}

func (p *mergePlane) reset(inputs []filter.Filter) {
	checks, unmerges := p.idx.checks, p.unmerges
	*p = *newMergePlane()
	p.idx.checks = checks // counters survive reseeds
	p.unmerges = unmerges
	for _, f := range inputs {
		p.add(f)
	}
}

func (p *mergePlane) desired() []filter.Filter { return p.idx.Forwarded() }
func (p *mergePlane) size() int                { return len(p.fs) }
func (p *mergePlane) coverChecks() uint64      { return p.idx.checks }

// mergeStats reports the plane's merge shape: groups currently
// suppressing members, members so suppressed, and cumulative unmerges.
func (p *mergePlane) mergeStats() (active, covered int, unmerges uint64) {
	return p.active, p.covered, p.unmerges
}
