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
// Inputs and emissions are told apart by identity (filterSet), not by
// rendered ID; only the group key is a rendered string. Group emissions
// are refcounted globally — nothing rules out distinct groups producing
// identical emissions, and the cover index must see each distinct filter
// exactly once — and fed through a private
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
// attached to the shared base. Members must be in canonical order. A group
// that cannot represent its union — members whose bases differ though
// their rendered group keys collide, or With rejecting a merged constraint
// (not reachable for the mergeable operator classes, kept as a safety
// net) — falls back to emitting its members verbatim, which is always
// sound.
func groupEmit(cattr string, members []filter.Filter) []filter.Filter {
	if len(members) == 1 {
		return []filter.Filter{members[0]}
	}
	base := members[0].Without(cattr)
	cs := make([]filter.Constraint, 0, len(members))
	for _, m := range members {
		on := m.ConstraintsOn(cattr)
		if len(on) != 1 || !identFilterEqual(m.Without(cattr), base) {
			return slices.Clone(members)
		}
		cs = append(cs, on[0])
	}
	cs = mergeConstraintSet(cs)
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
	key     string
	cattr   string
	members map[int32]filter.Filter // input slot -> filter
	emits   []filter.Filter         // current emissions, canonical order
	covered int                     // members not among the emissions
}

// accumulate appends one cover-index delta to the plane update's total.
func accumulate(total *CoverDelta, d CoverDelta) {
	total.Forward = append(total.Forward, d.Forward...)
	total.Retract = append(total.Retract, d.Retract...)
}

// netDelta nets the cover-index deltas one plane update accumulated: a
// retired emission's retraction can re-forward a filter a fresh emission
// then covers again, and the wire must only see the net effect. A
// filter's moves alternate, so a retraction cancels one forward.
func netDelta(total CoverDelta) CoverDelta {
	sortFiltersByID(total.Forward)
	sortFiltersByID(total.Retract)
	var d CoverDelta
	d.Retract, d.Forward = diffCanonical(total.Retract, total.Forward)
	return d
}

// mergePlane implements Merging incrementally: inputs are refcounted by
// identity, distinct inputs live in merge groups, group emissions are
// refcounted globally and cover-minimized through a private CoverIndex.
// Every delta touches one group and the emissions it shares.
type mergePlane struct {
	inputs  filterSet              // distinct inputs
	groupOf []*mergeGroup          // input slot -> its group
	groups  map[string]*mergeGroup // group key -> state
	emitted filterSet              // emissions, one reference per emitting group
	idx     *CoverIndex            // cover-minimal set over emissions

	active   int    // groups currently suppressing >= 1 member
	covered  int    // members suppressed behind a merged emission
	unmerges uint64 // removals that re-expanded a merged emission
}

func newMergePlane() *mergePlane {
	return &mergePlane{groups: make(map[string]*mergeGroup), idx: NewCoverIndex()}
}

func (p *mergePlane) add(f filter.Filter) CoverDelta {
	slot, fresh := p.inputs.add(f)
	if !fresh {
		return CoverDelta{} // distinct input set unchanged
	}
	cattr, key := mergeGroupKey(f)
	g := p.groups[key]
	if g == nil {
		g = &mergeGroup{key: key, cattr: cattr, members: make(map[int32]filter.Filter, 1)}
		p.groups[key] = g
	}
	g.members[slot] = f
	if int(slot) == len(p.groupOf) {
		p.groupOf = append(p.groupOf, nil)
	}
	p.groupOf[slot] = g
	var total CoverDelta
	p.refreshGroup(g, &total)
	return netDelta(total)
}

func (p *mergePlane) remove(f filter.Filter) CoverDelta {
	slot, _, last := p.inputs.remove(f)
	if !last {
		return CoverDelta{}
	}
	g := p.groupOf[slot]
	p.groupOf[slot] = nil
	delete(g.members, slot)
	var total CoverDelta
	if p.refreshGroup(g, &total) > 0 {
		p.unmerges++ // narrower filters had to be re-forwarded
	}
	return netDelta(total)
}

// refreshGroup recomputes one group's emissions after a membership change
// and routes the emission diff through the global emission refcounts and
// the cover index, accumulating the forward-set movement in total. It
// returns the number of emissions new to the group (the unmerge signal on
// the remove path) and deletes the group when its last member left.
func (p *mergePlane) refreshGroup(g *mergeGroup, total *CoverDelta) int {
	members := make([]filter.Filter, 0, len(g.members))
	for _, m := range g.members {
		members = append(members, m)
	}
	sortFiltersByID(members)
	var emits []filter.Filter
	if len(members) > 0 {
		emits = groupEmit(g.cattr, members)
	}
	retired, fresh := diffCanonical(g.emits, emits)
	for _, e := range retired {
		if _, _, last := p.emitted.remove(e); last {
			accumulate(total, p.idx.Remove(e))
		}
	}
	for _, e := range fresh {
		if _, first := p.emitted.add(e); first {
			accumulate(total, p.idx.Add(e))
		}
	}
	cov, _ := diffCanonical(members, emits)
	p.covered += len(cov) - g.covered
	if g.covered > 0 {
		p.active--
	}
	if len(cov) > 0 {
		p.active++
	}
	g.covered = len(cov)
	g.emits = emits
	if len(g.members) == 0 {
		delete(p.groups, g.key)
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
func (p *mergePlane) size() int                { return p.inputs.len() }
func (p *mergePlane) forwarded() int           { return p.idx.forwarded }
func (p *mergePlane) coverChecks() uint64      { return p.idx.checks }

// mergeStats reports the plane's merge shape: groups currently
// suppressing members, members so suppressed, and cumulative unmerges.
func (p *mergePlane) mergeStats() (active, covered int, unmerges uint64) {
	return p.active, p.covered, p.unmerges
}
