package routing

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/filter"
	"repro/internal/wire"
)

// Strategy selects the subscription-forwarding behavior of a broker
// (Section 2.2).
type Strategy uint8

// Routing strategies, in increasing order of routing-table optimization.
const (
	// Flooding forwards every notification on every link; no subscription
	// state is propagated at all.
	Flooding Strategy = iota + 1
	// Simple forwards every subscription on every other link; tables grow
	// with the number of subscriptions.
	Simple
	// Identity suppresses forwarding of subscriptions identical to one
	// already forwarded.
	Identity
	// Covering suppresses forwarding of subscriptions covered by one
	// already forwarded, and retracts forwarded subscriptions that a new
	// wider subscription covers.
	Covering
	// Merging additionally creates perfect merges of forwarded filters,
	// forwarding only the merged cover.
	Merging
)

// StrategyNames lists the parseable strategy names in increasing order of
// routing-table optimization.
func StrategyNames() []string {
	return []string{"flooding", "simple", "identity", "covering", "merging"}
}

// Strategies lists all strategies in the same order as StrategyNames.
func Strategies() []Strategy {
	return []Strategy{Flooding, Simple, Identity, Covering, Merging}
}

// ParseStrategy maps a name to a Strategy, ignoring case and surrounding
// whitespace. The error for an unknown name lists the valid ones.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "flooding":
		return Flooding, nil
	case "simple":
		return Simple, nil
	case "identity":
		return Identity, nil
	case "covering":
		return Covering, nil
	case "merging":
		return Merging, nil
	default:
		return 0, fmt.Errorf("routing: unknown strategy %q (valid: %s)",
			name, strings.Join(StrategyNames(), ", "))
	}
}

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case Flooding:
		return "flooding"
	case Simple:
		return "simple"
	case Identity:
		return "identity"
	case Covering:
		return "covering"
	case Merging:
		return "merging"
	default:
		return "invalid"
	}
}

// Reduce computes the set of filters that must be forwarded upstream to
// represent the given input filters under the strategy. The result always
// accepts at least the union of the inputs (soundness), and for Covering
// and Merging it is typically much smaller.
func (s Strategy) Reduce(fs []filter.Filter) []filter.Filter {
	switch s {
	case Flooding:
		// Flooding needs no subscription propagation at all.
		return nil
	case Simple:
		return dedupIdentical(fs) // identical duplicates carry no information
	case Identity:
		return dedupIdentical(fs)
	case Covering:
		return removeCovered(dedupIdentical(fs))
	case Merging:
		// Group-local perfect merging (see mergeplane.go): every filter
		// belongs to exactly one merge group, each group emits its base
		// plus the canonical union of the members' merge-attribute
		// constraints, and covering minimizes the emissions. Unlike the
		// old global greedy fixpoint this is a deterministic function of
		// the input *set* with purely local update cost, which is what
		// makes the incremental mergePlane exact.
		return removeCovered(groupMerge(dedupIdentical(fs)))
	default:
		return dedupIdentical(fs)
	}
}

func dedupIdentical(fs []filter.Filter) []filter.Filter {
	seen := make(map[string]bool, len(fs))
	out := make([]filter.Filter, 0, len(fs))
	for _, f := range fs {
		id := f.ID()
		if !seen[id] {
			seen[id] = true
			out = append(out, f)
		}
	}
	return out
}

// removeCovered drops every filter that is covered by another (distinct)
// filter in the set. Mutually covering filters (equal accepted sets, e.g.
// `x = 5` and `x in {5}`) keep the one with the lexicographically smallest
// canonical ID, so the result is a deterministic function of the input
// *set* — the property the incremental CoverIndex relies on to stay
// byte-identical to this batch oracle.
func removeCovered(fs []filter.Filter) []filter.Filter {
	ids := make([]string, len(fs))
	for i, f := range fs {
		ids[i] = f.ID()
	}
	out := make([]filter.Filter, 0, len(fs))
	for i, f := range fs {
		covered := false
		for j, g := range fs {
			if i == j {
				continue
			}
			if g.Covers(f) {
				// Mutual covers: keep the smaller ID (input order for
				// identical duplicates, which dedupIdentical removes
				// upstream anyway).
				if f.Covers(g) && (ids[i] < ids[j] || (ids[i] == ids[j] && i < j)) {
					continue
				}
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, f)
		}
	}
	return out
}

// Update is the diff a Forwarder emits for one neighbor: filters to newly
// subscribe and filters to retract. Both lists are sorted by canonical
// filter ID, so the administrative wire traffic a table change produces
// is deterministic and transcripts can be compared byte-for-byte.
type Update struct {
	Hop         wire.Hop
	Subscribe   []filter.Filter
	Unsubscribe []filter.Filter
}

// Empty reports whether the update carries no wire traffic.
func (u Update) Empty() bool { return len(u.Subscribe) == 0 && len(u.Unsubscribe) == 0 }

// Forwarder tracks, per neighbor, the set of filters this broker has
// forwarded (its provisioned upstream interest) together with the input
// filters that justify it, and computes minimal sub/unsub diffs when the
// local routing table changes. It implements the strategy-specific
// administrative traffic that Figure 9 counts.
//
// The primary API is the delta one — AddFilter/RemoveFilter apply a
// single routing-entry change at a cost proportional to the change:
// Flooding and Simple/Identity in O(1), Covering through the CoverIndex's
// probes of its witness and displacement planes, and Merging through
// refcounted merge groups (mergeplane.go) that recompute only the group
// the changed filter belongs to. Recompute remains as the batch oracle:
// link churn uses it to reseed or repair a neighbor's state from an
// authoritative input list, and the equivalence tests compare the delta
// path against it.
type Forwarder struct {
	strategy Strategy

	mu        sync.Mutex
	forwarded map[string]map[string]filter.Filter // hop -> filterID -> filter
	planes    map[string]plane                    // hop -> tracked-input state
}

// plane is the per-neighbor input state behind the delta API: add and
// remove report the forward-set delta one input change causes.
type plane interface {
	add(f filter.Filter) CoverDelta
	remove(f filter.Filter) CoverDelta
	reset(inputs []filter.Filter)
	desired() []filter.Filter
	size() int
	coverChecks() uint64
}

// NewForwarder returns a Forwarder for the given strategy.
func NewForwarder(s Strategy) *Forwarder {
	return &Forwarder{
		strategy:  s,
		forwarded: make(map[string]map[string]filter.Filter),
		planes:    make(map[string]plane),
	}
}

// Strategy returns the forwarder's strategy.
func (f *Forwarder) Strategy() Strategy { return f.strategy }

// AddFilter records one more routing-table entry carrying fl among the
// inputs for the neighbor and returns the administrative diff it causes.
func (f *Forwarder) AddFilter(hop wire.Hop, fl filter.Filter) Update {
	f.mu.Lock()
	defer f.mu.Unlock()
	hk := hop.String()
	return f.applyDeltaLocked(hop, hk, f.planeLocked(hk).add(fl))
}

// RemoveFilter records that one routing-table entry carrying fl is gone
// from the neighbor's inputs and returns the administrative diff.
func (f *Forwarder) RemoveFilter(hop wire.Hop, fl filter.Filter) Update {
	f.mu.Lock()
	defer f.mu.Unlock()
	hk := hop.String()
	return f.applyDeltaLocked(hop, hk, f.planeLocked(hk).remove(fl))
}

// Recompute replaces the neighbor's tracked inputs with the given
// authoritative list — the filters of all routing table entries *not*
// pointing at that neighbor — and diffs the resulting desired forward set
// against what was previously forwarded. It is the batch oracle behind
// the delta API: link churn reseeds through it, and the equivalence tests
// compare the delta path against it.
func (f *Forwarder) Recompute(hop wire.Hop, inputs []filter.Filter) Update {
	f.mu.Lock()
	defer f.mu.Unlock()
	hk := hop.String()
	p := f.planeLocked(hk)
	p.reset(inputs)
	return f.diffLocked(hop, hk, p.desired())
}

// planeLocked returns (creating on first use) the tracked-input state for
// a neighbor. Callers hold f.mu.
func (f *Forwarder) planeLocked(hk string) plane {
	p, ok := f.planes[hk]
	if !ok {
		p = newPlane(f.strategy)
		f.planes[hk] = p
	}
	return p
}

// applyDeltaLocked turns an incremental forward-set delta into an Update,
// mutating the neighbor's forwarded set. Callers hold f.mu.
func (f *Forwarder) applyDeltaLocked(hop wire.Hop, hk string, d CoverDelta) Update {
	u := Update{Hop: hop}
	if d.Empty() {
		return u
	}
	have := f.forwarded[hk]
	if have == nil {
		have = make(map[string]filter.Filter)
		f.forwarded[hk] = have
	}
	for _, fl := range d.Forward {
		id := fl.ID()
		if _, ok := have[id]; !ok {
			have[id] = fl
			u.Subscribe = append(u.Subscribe, fl)
		}
	}
	for _, fl := range d.Retract {
		id := fl.ID()
		if _, ok := have[id]; ok {
			delete(have, id)
			u.Unsubscribe = append(u.Unsubscribe, fl)
		}
	}
	return u
}

// diffLocked diffs a freshly computed desired forward set against the
// neighbor's forwarded set, sorted for deterministic wire order. Callers
// hold f.mu.
func (f *Forwarder) diffLocked(hop wire.Hop, hk string, desired []filter.Filter) Update {
	want := make(map[string]filter.Filter, len(desired))
	for _, d := range desired {
		want[d.ID()] = d
	}
	have := f.forwarded[hk]
	if have == nil {
		have = make(map[string]filter.Filter)
		f.forwarded[hk] = have
	}
	u := Update{Hop: hop}
	for id, fl := range want {
		if _, ok := have[id]; !ok {
			u.Subscribe = append(u.Subscribe, fl)
			have[id] = fl
		}
	}
	for id, fl := range have {
		if _, ok := want[id]; !ok {
			u.Unsubscribe = append(u.Unsubscribe, fl)
			delete(have, id)
		}
	}
	sortFiltersByID(u.Subscribe)
	sortFiltersByID(u.Unsubscribe)
	return u
}

// Forwarded returns the filters currently forwarded to the neighbor,
// sorted by canonical ID.
func (f *Forwarder) Forwarded(hop wire.Hop) []filter.Filter {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.forwarded[hop.String()]
	out := make([]filter.Filter, 0, len(m))
	for _, fl := range m {
		out = append(out, fl)
	}
	sortFiltersByID(out)
	return out
}

// DropHop forgets all forwarding state for a neighbor (link teardown).
func (f *Forwarder) DropHop(hop wire.Hop) {
	f.mu.Lock()
	defer f.mu.Unlock()
	hk := hop.String()
	delete(f.forwarded, hk)
	delete(f.planes, hk)
}

// ForwarderStats describes the control plane's shape and its pairwise
// cover work.
type ForwarderStats struct {
	// Strategy is the forwarder's routing strategy.
	Strategy Strategy
	// Hops is the number of neighbors with tracked state; TrackedFilters
	// the distinct input filters summed over neighbors; ForwardedFilters
	// the forwarded filters summed over neighbors.
	Hops, TrackedFilters, ForwardedFilters int
	// CoverChecks counts full filter.Covers evaluations in the cover
	// indexes.
	CoverChecks uint64
	// MergesActive counts merge groups currently suppressing at least one
	// input behind a broader merged filter, MergeCovered the inputs so
	// suppressed, and Unmerges the cumulative removals that forced a
	// merged filter to be re-expanded into narrower ones. All three stay
	// zero for strategies below Merging.
	MergesActive, MergeCovered int
	Unmerges                   uint64
}

// Stats returns a snapshot of the forwarder's counters.
func (f *Forwarder) Stats() ForwarderStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := ForwarderStats{Strategy: f.strategy, Hops: len(f.planes)}
	for _, p := range f.planes {
		s.TrackedFilters += p.size()
		s.CoverChecks += p.coverChecks()
		if mp, ok := p.(*mergePlane); ok {
			active, covered, unmerges := mp.mergeStats()
			s.MergesActive += active
			s.MergeCovered += covered
			s.Unmerges += unmerges
		}
	}
	for _, m := range f.forwarded {
		s.ForwardedFilters += len(m)
	}
	return s
}

// ---------------------------------------------------------------------------
// Per-strategy planes.
// ---------------------------------------------------------------------------

// newPlane builds the tracked-input state for one neighbor under the
// given strategy.
func newPlane(s Strategy) plane {
	switch s {
	case Flooding:
		return floodPlane{}
	case Covering:
		return &coverPlane{idx: NewCoverIndex()}
	case Merging:
		return newMergePlane()
	default: // Simple, Identity
		return &dedupPlane{refPlane: newRefPlane()}
	}
}

// floodPlane is the Flooding no-op: no subscriptions propagate at all.
type floodPlane struct{}

func (floodPlane) add(filter.Filter) CoverDelta    { return CoverDelta{} }
func (floodPlane) remove(filter.Filter) CoverDelta { return CoverDelta{} }
func (floodPlane) reset([]filter.Filter)           {}
func (floodPlane) desired() []filter.Filter        { return nil }
func (floodPlane) size() int                       { return 0 }
func (floodPlane) coverChecks() uint64             { return 0 }

// refPlane reference-counts distinct filters, the shared bookkeeping of
// the dedup and merge planes.
type refPlane struct {
	refs map[string]int
	fs   map[string]filter.Filter
}

func newRefPlane() refPlane {
	return refPlane{refs: make(map[string]int), fs: make(map[string]filter.Filter)}
}

// track adds one reference, reporting whether the filter is new.
func (p *refPlane) track(f filter.Filter) bool {
	id := f.ID()
	p.refs[id]++
	if p.refs[id] == 1 {
		p.fs[id] = f
		return true
	}
	return false
}

// untrack drops one reference, reporting whether the filter is gone.
func (p *refPlane) untrack(f filter.Filter) bool {
	id := f.ID()
	if p.refs[id] == 0 {
		return false
	}
	if p.refs[id]--; p.refs[id] > 0 {
		return false
	}
	delete(p.refs, id)
	delete(p.fs, id)
	return true
}

func (p *refPlane) reset(inputs []filter.Filter) {
	clear(p.refs)
	clear(p.fs)
	for _, f := range inputs {
		p.track(f)
	}
}

// distinct returns the tracked filters sorted by ID, the canonical
// forward order.
func (p *refPlane) distinct() []filter.Filter {
	out := make([]filter.Filter, 0, len(p.fs))
	for _, f := range p.fs {
		out = append(out, f)
	}
	sortFiltersByID(out)
	return out
}

func (p *refPlane) size() int           { return len(p.fs) }
func (p *refPlane) coverChecks() uint64 { return 0 }

// dedupPlane implements Simple and Identity: forward every distinct
// filter once.
type dedupPlane struct{ refPlane }

func (p *dedupPlane) add(f filter.Filter) CoverDelta {
	if p.track(f) {
		return CoverDelta{Forward: []filter.Filter{f}}
	}
	return CoverDelta{}
}

func (p *dedupPlane) remove(f filter.Filter) CoverDelta {
	if p.untrack(f) {
		return CoverDelta{Retract: []filter.Filter{f}}
	}
	return CoverDelta{}
}

func (p *dedupPlane) desired() []filter.Filter { return p.distinct() }

// coverPlane implements Covering through the incremental CoverIndex.
type coverPlane struct{ idx *CoverIndex }

func (p *coverPlane) add(f filter.Filter) CoverDelta    { return p.idx.Add(f) }
func (p *coverPlane) remove(f filter.Filter) CoverDelta { return p.idx.Remove(f) }

func (p *coverPlane) reset(inputs []filter.Filter) {
	idx := NewCoverIndex()
	idx.checks = p.idx.checks // the counter survives reseeds
	for _, f := range inputs {
		idx.Add(f)
	}
	p.idx = idx
}

func (p *coverPlane) desired() []filter.Filter { return p.idx.Forwarded() }
func (p *coverPlane) size() int                { return p.idx.Len() }
func (p *coverPlane) coverChecks() uint64      { return p.idx.checks }

// mergePlane (Merging) lives in mergeplane.go: refcounted merge groups
// with group-local recomputation and a private CoverIndex over the
// emissions.
