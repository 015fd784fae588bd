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

// dedupIdentical keeps the first of each set of identical filters.
func dedupIdentical(fs []filter.Filter) []filter.Filter {
	var seen filterSet
	out := make([]filter.Filter, 0, len(fs))
	for _, f := range fs {
		if _, fresh := seen.add(f); fresh {
			out = append(out, f)
		}
	}
	return out
}

// removeCovered drops every filter that is covered by another (distinct)
// filter in the set. Mutually covering filters (equal accepted sets, e.g.
// `x = 5` and `x in {5}`) keep the one first in canonical order, so the
// result is a deterministic function of the input *set* — the property the
// incremental CoverIndex relies on to stay byte-identical to this batch
// oracle.
func removeCovered(fs []filter.Filter) []filter.Filter {
	out := make([]filter.Filter, 0, len(fs))
	for i, f := range fs {
		covered := false
		for j, g := range fs {
			if i == j {
				continue
			}
			if g.Covers(f) {
				// Mutual covers: keep the canonically first (input order
				// for identical duplicates, which dedupIdentical removes
				// upstream anyway).
				if f.Covers(g) {
					if c := cmpFilterCanonical(f, g); c < 0 || (c == 0 && i < j) {
						continue
					}
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
// subscribe and filters to retract. Both lists are in canonical order
// (sortFiltersByID: by rendered ID, ties between distinct filters whose
// IDs collide broken by content), so the administrative wire traffic a
// table change produces is deterministic and transcripts can be compared
// byte-for-byte.
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
// administrative traffic that Figure 9 counts. Each neighbor's plane is
// the only copy of its forward set: filters are told apart by identity
// (filterSet), never by a rendered ID.
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

	mu     sync.Mutex
	planes map[string]plane // hop -> tracked inputs and forward set
}

// plane is the per-neighbor input state behind the delta API: add and
// remove report the exact forward-set delta one input change causes, and
// desired is the forward set itself.
type plane interface {
	add(f filter.Filter) CoverDelta
	remove(f filter.Filter) CoverDelta
	reset(inputs []filter.Filter)
	desired() []filter.Filter
	size() int
	forwarded() int
	coverChecks() uint64
}

// NewForwarder returns a Forwarder for the given strategy.
func NewForwarder(s Strategy) *Forwarder {
	return &Forwarder{strategy: s, planes: make(map[string]plane)}
}

// Strategy returns the forwarder's strategy.
func (f *Forwarder) Strategy() Strategy { return f.strategy }

// AddFilter records one more routing-table entry carrying fl among the
// inputs for the neighbor and returns the administrative diff it causes.
func (f *Forwarder) AddFilter(hop wire.Hop, fl filter.Filter) Update {
	f.mu.Lock()
	defer f.mu.Unlock()
	return updateOf(hop, f.planeLocked(hop.String()).add(fl))
}

// RemoveFilter records that one routing-table entry carrying fl is gone
// from the neighbor's inputs and returns the administrative diff.
func (f *Forwarder) RemoveFilter(hop wire.Hop, fl filter.Filter) Update {
	f.mu.Lock()
	defer f.mu.Unlock()
	return updateOf(hop, f.planeLocked(hop.String()).remove(fl))
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
	p := f.planeLocked(hop.String())
	before := p.desired()
	p.reset(inputs)
	u := Update{Hop: hop}
	u.Unsubscribe, u.Subscribe = diffCanonical(before, p.desired())
	return u
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

// updateOf turns a plane's exact forward-set delta into an Update.
func updateOf(hop wire.Hop, d CoverDelta) Update {
	return Update{Hop: hop, Subscribe: d.Forward, Unsubscribe: d.Retract}
}

// Forwarded returns the filters currently forwarded to the neighbor, in
// canonical order.
func (f *Forwarder) Forwarded(hop wire.Hop) []filter.Filter {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p, ok := f.planes[hop.String()]; ok {
		return p.desired()
	}
	return nil
}

// DropHop forgets all forwarding state for a neighbor (link teardown).
func (f *Forwarder) DropHop(hop wire.Hop) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.planes, hop.String())
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
		s.ForwardedFilters += p.forwarded()
		s.CoverChecks += p.coverChecks()
		if mp, ok := p.(*mergePlane); ok {
			active, covered, unmerges := mp.mergeStats()
			s.MergesActive += active
			s.MergeCovered += covered
			s.Unmerges += unmerges
		}
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
		return &dedupPlane{}
	}
}

// floodPlane is the Flooding no-op: no subscriptions propagate at all.
type floodPlane struct{}

func (floodPlane) add(filter.Filter) CoverDelta    { return CoverDelta{} }
func (floodPlane) remove(filter.Filter) CoverDelta { return CoverDelta{} }
func (floodPlane) reset([]filter.Filter)           {}
func (floodPlane) desired() []filter.Filter        { return nil }
func (floodPlane) forwarded() int                  { return 0 }
func (floodPlane) size() int                       { return 0 }
func (floodPlane) coverChecks() uint64             { return 0 }

// dedupPlane implements Simple and Identity: forward every distinct
// filter once.
type dedupPlane struct{ fs filterSet }

func (p *dedupPlane) add(f filter.Filter) CoverDelta {
	if _, fresh := p.fs.add(f); fresh {
		return CoverDelta{Forward: []filter.Filter{f}}
	}
	return CoverDelta{}
}

func (p *dedupPlane) remove(f filter.Filter) CoverDelta {
	if _, held, last := p.fs.remove(f); last {
		return CoverDelta{Retract: []filter.Filter{held}}
	}
	return CoverDelta{}
}

func (p *dedupPlane) reset(inputs []filter.Filter) {
	p.fs = filterSet{}
	for _, f := range inputs {
		p.fs.add(f)
	}
}

func (p *dedupPlane) desired() []filter.Filter { return p.fs.filters() }
func (p *dedupPlane) size() int                { return p.fs.len() }
func (p *dedupPlane) forwarded() int           { return p.fs.len() }
func (p *dedupPlane) coverChecks() uint64      { return 0 }

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
func (p *coverPlane) forwarded() int           { return p.idx.forwarded }
func (p *coverPlane) coverChecks() uint64      { return p.idx.checks }

// mergePlane (Merging) lives in mergeplane.go: refcounted merge groups
// with group-local recomputation and a private CoverIndex over the
// emissions.
