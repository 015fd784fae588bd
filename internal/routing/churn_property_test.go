package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/wire"
)

// churnFilterPool builds a structured filter family with heavy covering
// and merging material: nested and adjacent ranges, point subscriptions,
// equivalence classes (EQ vs singleton IN), presence constraints, a second
// attribute dimension, and the cover index's edge shapes
// (coverEdgeFilters).
func churnFilterPool() []filter.Filter {
	var pool []filter.Filter
	add := func(src string) { pool = append(pool, filter.MustParse(src)) }
	for lo := 0; lo < 40; lo += 5 {
		add(fmt.Sprintf(`p in [%d, %d]`, lo, lo+4))  // adjacent runs
		add(fmt.Sprintf(`p in [%d, %d]`, lo, lo+20)) // nested overlaps
	}
	for v := 0; v < 6; v++ {
		add(fmt.Sprintf(`p = %d`, v))
		add(fmt.Sprintf(`p in {%d}`, v)) // mutual cover with the EQ form
	}
	for _, svc := range []string{"parking", "pizza", "taxi"} {
		add(fmt.Sprintf(`service = %q`, svc))
		add(fmt.Sprintf(`service = %q && cost < 3`, svc))
		add(fmt.Sprintf(`service = %q && cost < 7`, svc))
	}
	add(`cost exists`)
	add(`p >= 0`)
	return append(pool, coverEdgeFilters()...)
}

// refInputs is the authoritative per-hop input multiset the test
// maintains alongside the forwarder.
type refInputs map[string][]filter.Filter // hop key -> multiset

func (r refInputs) add(hk string, f filter.Filter) { r[hk] = append(r[hk], f) }

func (r refInputs) remove(hk string, f filter.Filter) bool {
	fs := r[hk]
	for i, g := range fs {
		if identFilterEqual(g, f) {
			r[hk] = append(fs[:i], fs[i+1:]...)
			return true
		}
	}
	return false
}

// identKey renders a filter's identity for test bookkeeping: its ID and
// its identity hash, which tells apart filters whose IDs collide.
func identKey(f filter.Filter) string {
	return fmt.Sprintf("%s#%016x", f.ID(), hashFilterIdent(fnvOffset64, f))
}

// sortedIDs returns the sorted identity keys of a filter list.
func sortedIDs(fs []filter.Filter) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = identKey(f)
	}
	sort.Strings(out)
	return out
}

// canonicalReduce is the batch oracle: Strategy.Reduce over the ID-sorted
// distinct... no — over the ID-sorted input list, the canonical order the
// merge plane uses, so Merging's greedy fixpoint is reproducible.
func canonicalReduce(s Strategy, inputs []filter.Filter) []filter.Filter {
	cp := make([]filter.Filter, len(inputs))
	copy(cp, inputs)
	sortFiltersByID(cp)
	return s.Reduce(cp)
}

// TestForwarderIncrementalMatchesBatch drives random churn —
// subscription adds, removes, and relocations between hops — through the
// delta API of every strategy and asserts after each step that the
// per-neighbor forwarded set is exactly the batch Strategy.Reduce over
// the surviving inputs, and that the emitted sub/unsub wire deltas replay
// to the same set.
func TestForwarderIncrementalMatchesBatch(t *testing.T) {
	hops := []wire.Hop{wire.BrokerHop("n1"), wire.BrokerHop("n2"), wire.BrokerHop("n3")}
	pool := churnFilterPool()
	for _, strat := range Strategies() {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(0xC0FFEE) + int64(strat)))
			fwd := NewForwarder(strat)
			ref := make(refInputs)
			// remote simulates each neighbor applying the emitted wire
			// deltas; it must track Forwarded exactly.
			remote := make(map[string]map[string]filter.Filter)
			apply := func(u Update) {
				hk := u.Hop.String()
				m := remote[hk]
				if m == nil {
					m = make(map[string]filter.Filter)
					remote[hk] = m
				}
				for _, f := range u.Subscribe {
					if _, dup := m[identKey(f)]; dup {
						t.Fatalf("%s: duplicate subscribe for %s", hk, f)
					}
					m[identKey(f)] = f
				}
				for _, f := range u.Unsubscribe {
					if _, ok := m[identKey(f)]; !ok {
						t.Fatalf("%s: unsubscribe for never-forwarded %s", hk, f)
					}
					delete(m, identKey(f))
				}
			}

			steps := 400
			for step := 0; step < steps; step++ {
				f := pool[rng.Intn(len(pool))]
				hop := hops[rng.Intn(len(hops))]
				hk := hop.String()
				switch op := rng.Intn(10); {
				case op < 4: // subscribe
					ref.add(hk, f)
					apply(fwd.AddFilter(hop, f))
				case op < 7: // unsubscribe (only if present)
					if ref.remove(hk, f) {
						apply(fwd.RemoveFilter(hop, f))
					}
				default: // relocate: move one input between neighbors
					to := hops[rng.Intn(len(hops))]
					if to == hop || !ref.remove(hk, f) {
						continue
					}
					apply(fwd.RemoveFilter(hop, f))
					ref.add(to.String(), f)
					apply(fwd.AddFilter(to, f))
				}

				checkPlaneIndexes(t, fwd, false)
				for _, h := range hops {
					want := sortedIDs(canonicalReduce(strat, ref[h.String()]))
					got := sortedIDs(fwd.Forwarded(h))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d hop %s:\n got  %v\n want %v",
							step, h, got, want)
					}
					replayed := make([]filter.Filter, 0, len(remote[h.String()]))
					for _, fl := range remote[h.String()] {
						replayed = append(replayed, fl)
					}
					if !reflect.DeepEqual(sortedIDs(replayed), want) {
						t.Fatalf("step %d hop %s: wire replay diverged:\n got  %v\n want %v",
							step, h, sortedIDs(replayed), want)
					}
				}
			}
			// Every input leaves: the forwarded sets empty out and the
			// cover indexes keep no witness, dependent or posting behind.
			for _, h := range hops {
				for _, f := range append([]filter.Filter(nil), ref[h.String()]...) {
					ref.remove(h.String(), f)
					apply(fwd.RemoveFilter(h, f))
				}
				if got := fwd.Forwarded(h); len(got) != 0 || len(remote[h.String()]) != 0 {
					t.Fatalf("hop %s after drain: forwarded %v, remote %v", h, idsOf(got), remote[h.String()])
				}
			}
			checkPlaneIndexes(t, fwd, true)
		})
	}
}

// checkPlaneIndexes checks the witness bookkeeping of every cover index
// behind the forwarder's planes and, when drained is set, that they hold
// nothing.
func checkPlaneIndexes(t *testing.T, fwd *Forwarder, drained bool) {
	t.Helper()
	fwd.mu.Lock()
	defer fwd.mu.Unlock()
	for _, p := range fwd.planes {
		var idx *CoverIndex
		switch p := p.(type) {
		case *coverPlane:
			idx = p.idx
		case *mergePlane:
			idx = p.idx
		default:
			continue
		}
		checkCoverInvariants(t, idx)
		if drained {
			checkCoverDrained(t, idx)
		}
	}
}

// TestMergePlaneUnmergeRestores pins the unmerge half of the merging
// plane: removing the input that extended a merged filter must restore
// exactly the pre-merge forwarded set — retract the merged filter,
// re-subscribe the narrower survivor — and the merge counters must track
// the transition.
func TestMergePlaneUnmergeRestores(t *testing.T) {
	hop := wire.BrokerHop("up")
	fwd := NewForwarder(Merging)
	a := mkFilter(`p in [0, 10]`)
	b := mkFilter(`p in [11, 20]`)
	other := mkFilter(`q = 1`)
	merged := mkFilter(`p in [0, 20]`)

	fwd.AddFilter(hop, a)
	fwd.AddFilter(hop, other)
	before := sortedIDs(fwd.Forwarded(hop))
	if want := sortedIDs([]filter.Filter{a, other}); !reflect.DeepEqual(before, want) {
		t.Fatalf("pre-merge forwarded = %v, want %v", before, want)
	}

	u := fwd.AddFilter(hop, b)
	if got, want := idsOf(u.Subscribe), []string{merged.ID()}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merge subscribe = %v, want %v", got, want)
	}
	if got, want := idsOf(u.Unsubscribe), []string{a.ID()}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merge unsubscribe = %v, want %v", got, want)
	}
	s := fwd.Stats()
	if s.MergesActive != 1 || s.MergeCovered != 2 || s.Unmerges != 0 {
		t.Fatalf("mid-merge stats = %d active / %d covered / %d unmerges, want 1/2/0",
			s.MergesActive, s.MergeCovered, s.Unmerges)
	}

	// A second reference to b and its removal must not disturb the merge.
	fwd.AddFilter(hop, b)
	if u := fwd.RemoveFilter(hop, b); !u.Empty() {
		t.Fatalf("dropping one of two refs emitted traffic: %+v", u)
	}

	u = fwd.RemoveFilter(hop, b)
	if got, want := idsOf(u.Subscribe), []string{a.ID()}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unmerge subscribe = %v, want %v", got, want)
	}
	if got, want := idsOf(u.Unsubscribe), []string{merged.ID()}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unmerge unsubscribe = %v, want %v", got, want)
	}
	if after := sortedIDs(fwd.Forwarded(hop)); !reflect.DeepEqual(after, before) {
		t.Fatalf("unmerge did not restore pre-merge set: got %v, want %v", after, before)
	}
	s = fwd.Stats()
	if s.MergesActive != 0 || s.MergeCovered != 0 || s.Unmerges != 1 {
		t.Fatalf("post-unmerge stats = %d active / %d covered / %d unmerges, want 0/0/1",
			s.MergesActive, s.MergeCovered, s.Unmerges)
	}
}

// TestForwarderRecomputeReseedsDeltaState interleaves the batch oracle
// with delta ops: a Recompute must leave the tracked state exactly as if
// the inputs had arrived incrementally.
func TestForwarderRecomputeReseedsDeltaState(t *testing.T) {
	hop := wire.BrokerHop("up")
	wide := mkFilter(`p in [0, 100]`)
	narrow := mkFilter(`p in [10, 20]`)
	other := mkFilter(`q = 1`)
	for _, strat := range Strategies() {
		fwd := NewForwarder(strat)
		fwd.AddFilter(hop, narrow)
		// Authoritative reseed drops narrow, installs wide+other.
		fwd.Recompute(hop, []filter.Filter{wide, other})
		// Delta ops continue from the reseeded state.
		u := fwd.RemoveFilter(hop, wide)
		want := sortedIDs(canonicalReduce(strat, []filter.Filter{other}))
		if got := sortedIDs(fwd.Forwarded(hop)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: after reseed+remove got %v want %v (update %+v)", strat, got, want, u)
		}
	}
}

// TestForwarderUpdateDeterministic pins satellite-level determinism: the
// same input set presented in shuffled orders yields byte-identical
// sorted updates.
func TestForwarderUpdateDeterministic(t *testing.T) {
	hop := wire.BrokerHop("up")
	var inputs []filter.Filter
	for i := 0; i < 16; i++ {
		inputs = append(inputs, filter.MustNew(
			filter.EQ("topic", message.String(fmt.Sprintf("t%d", i)))))
	}
	var first []string
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cp := make([]filter.Filter, len(inputs))
		copy(cp, inputs)
		rng.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
		fwd := NewForwarder(Simple)
		u := fwd.Recompute(hop, cp)
		ids := idsOf(u.Subscribe)
		if !sort.StringsAreSorted(ids) {
			t.Fatalf("Subscribe not sorted: %v", ids)
		}
		if first == nil {
			first = ids
		} else if !reflect.DeepEqual(ids, first) {
			t.Fatalf("shuffled inputs changed wire order: %v vs %v", ids, first)
		}
	}
}
