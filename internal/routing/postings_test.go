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

// Scan-based reference implementations of the enumeration APIs, computed
// from All() (itself a canonical-order full scan): filtering a canonically
// sorted slice preserves the canonical order, so results compare
// structurally equal to the posting-list paths.

func clientEntriesRef(all []Entry, c wire.ClientID, id wire.SubID) []Entry {
	var out []Entry
	for _, e := range all {
		if e.Client == c && e.SubID == id {
			out = append(out, e)
		}
	}
	return out
}

func hopEntriesRef(all []Entry, h wire.Hop) []Entry {
	var out []Entry
	for _, e := range all {
		if e.Hop == h {
			out = append(out, e)
		}
	}
	return out
}

func overlapsHopRef(all []Entry, f filter.Filter, h wire.Hop) bool {
	for _, e := range all {
		if e.Hop == h && e.Filter.Overlaps(f) {
			return true
		}
	}
	return false
}

func hopsOverlappingRef(all []Entry, f filter.Filter, from wire.Hop) []wire.Hop {
	seen := make(map[wire.Hop]bool)
	var out []wire.Hop
	for _, e := range all {
		if e.Hop == from || seen[e.Hop] {
			continue
		}
		if e.Filter.Overlaps(f) {
			seen[e.Hop] = true
			out = append(out, e.Hop)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func checkEnumerationParity(t *testing.T, tbl *Table, r *rand.Rand, step int) {
	t.Helper()
	all := tbl.All()
	// Owner enumeration: a present identity, a random (often absent) one,
	// and the empty aggregate identity (scan fallback path).
	idents := [][2]string{
		{fmt.Sprintf("c%d", r.Intn(3)), fmt.Sprintf("s%d", r.Intn(3))},
		{fmt.Sprintf("c%d", r.Intn(9)), fmt.Sprintf("s%d", r.Intn(9))},
		{"", ""},
	}
	for _, ci := range idents {
		c, id := wire.ClientID(ci[0]), wire.SubID(ci[1])
		got := tbl.ClientEntries(c, id)
		want := clientEntriesRef(all, c, id)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: ClientEntries(%q, %q)\npostings: %v\nscan:     %v",
				step, c, id, got, want)
		}
	}
	f := randFilter(r)
	from := randHop(r)
	gotHops := tbl.HopsOverlapping(f, from)
	wantHops := hopsOverlappingRef(all, f, from)
	if !reflect.DeepEqual(gotHops, wantHops) {
		t.Fatalf("step %d: HopsOverlapping\npostings: %v\nscan:     %v", step, gotHops, wantHops)
	}
	h := randHop(r)
	if got, want := tbl.OverlapsHop(f, h), overlapsHopRef(all, f, h); got != want {
		t.Fatalf("step %d: OverlapsHop(%s) = %v, scan says %v", step, h, got, want)
	}
	// The aggregate posting counters must track the live table exactly:
	// one hop posting per entry, one ident posting per client-owned entry.
	clientOwned := 0
	for _, e := range all {
		if e.IsClientEntry() {
			clientOwned++
		}
	}
	st := tbl.IndexStats()
	if st.HopPostings != len(all) || st.IdentPostings != clientOwned {
		t.Fatalf("step %d: IndexStats postings = %d hop / %d ident, want %d / %d",
			step, st.HopPostings, st.IdentPostings, len(all), clientOwned)
	}
}

// TestPostingsParityProperty drives randomized add / remove / RemoveClient
// / RemoveHop interleavings and asserts the posting-list enumeration paths
// return byte-identical results (same canonical order) to full-scan
// references, including the removal APIs' removed-entry return values.
func TestPostingsParityProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(1000 + seed))
			tbl := NewTable()
			var live []Entry
			for step := 0; step < 250; step++ {
				switch op := r.Intn(10); {
				case op < 5: // add
					e := randEntry(r)
					if tbl.Add(e) {
						live = append(live, e)
					}
				case op < 7 && len(live) > 0: // remove a client subscription
					e := live[r.Intn(len(live))]
					want := clientEntriesRef(tbl.All(), e.Client, e.SubID)
					got := tbl.RemoveClient(e.Client, e.SubID)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: RemoveClient(%q, %q)\npostings: %v\nscan:     %v",
							step, e.Client, e.SubID, got, want)
					}
					kept := live[:0]
					for _, le := range live {
						if le.Client != e.Client || le.SubID != e.SubID {
							kept = append(kept, le)
						}
					}
					live = kept
				case op < 8 && len(live) > 0: // remove one entry
					i := r.Intn(len(live))
					if !tbl.Remove(live[i]) {
						t.Fatalf("step %d: live entry not removable", step)
					}
					live = append(live[:i], live[i+1:]...)
				case op == 8 && len(live) > 0: // remove a hop
					h := live[r.Intn(len(live))].Hop
					want := hopEntriesRef(tbl.All(), h)
					got := tbl.RemoveHop(h)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: RemoveHop(%s)\npostings: %v\nscan:     %v",
							step, h, got, want)
					}
					kept := live[:0]
					for _, le := range live {
						if le.Hop != h {
							kept = append(kept, le)
						}
					}
					live = kept
				}
				if tbl.Len() != len(live) {
					t.Fatalf("step %d: table has %d entries, shadow %d", step, tbl.Len(), len(live))
				}
				checkEnumerationParity(t, tbl, r, step)
			}
			// Drain completely: postings must account down to zero.
			for _, e := range live {
				tbl.Remove(e)
			}
			st := tbl.IndexStats()
			if st.Entries != 0 || st.IdentPostings != 0 || st.HopPostings != 0 {
				t.Errorf("after drain IndexStats = %+v, want zero entries and postings", st)
			}
		})
	}
}

// TestRemoveHopAfterSlotReuse pins the generation check on the hop
// postings: a slot freed from one hop and reused for another must not be
// removable through the old hop's stale posting.
func TestRemoveHopAfterSlotReuse(t *testing.T) {
	tbl := NewTable()
	f := filter.MustNew(filter.EQ("a", message.Int(1)))
	e1 := Entry{Filter: f, Hop: wire.BrokerHop("b1"), Client: "C", SubID: "s1"}
	tbl.Add(e1)
	tbl.Remove(e1) // frees the slot
	e2 := Entry{Filter: f, Hop: wire.BrokerHop("b2"), Client: "C", SubID: "s2"}
	tbl.Add(e2) // reuses it for another hop
	if got := tbl.RemoveHop(wire.BrokerHop("b1")); got != nil {
		t.Fatalf("RemoveHop(b1) removed %v through a stale posting", got)
	}
	if got := tbl.ClientEntries("C", "s1"); got != nil {
		t.Fatalf("ClientEntries(C, s1) = %v through a stale posting", got)
	}
	if got := tbl.RemoveHop(wire.BrokerHop("b2")); !reflect.DeepEqual(got, []Entry{e2}) {
		t.Fatalf("RemoveHop(b2) = %v, want [e2]", got)
	}
	if tbl.Len() != 0 {
		t.Fatalf("table not empty: %d", tbl.Len())
	}
}

// TestOwnerTableDrains churns 10 000 distinct (client, subscription)
// owners through a table, 100 live at a time, each with two rows removed
// one by one or by RemoveClient. An owner's last row frees its slot, so
// the owner table's live count returns to its baseline and its capacity
// stays at the high-water mark of one round instead of growing with every
// owner the table has ever seen.
func TestOwnerTableDrains(t *testing.T) {
	tbl := NewTable()
	x := tbl.idx
	keep := []Entry{
		{Filter: mkFilter(`k = 1`), Hop: wire.BrokerHop("b1")},
		{Filter: mkFilter(`k = 2`), Hop: wire.ClientHop("keep"), Client: "keep", SubID: "s"},
	}
	for _, e := range keep {
		tbl.Add(e)
	}
	liveOwners := func() int { return len(x.owners) - len(x.ownerFree) }
	baseLive, baseTable := liveOwners(), x.ownerIDs.live
	entries := func(i int) []Entry {
		c := wire.ClientID(fmt.Sprintf("c%d", i))
		s := wire.SubID(fmt.Sprintf("s%d", i))
		return []Entry{
			{Filter: mkFilter(fmt.Sprintf(`p = %d`, i)), Hop: wire.ClientHop(c), Client: c, SubID: s},
			{Filter: mkFilter(fmt.Sprintf(`p = %d`, i)), Hop: wire.BrokerHop("b2"), Client: c, SubID: s},
		}
	}
	highOwners, highSlots := 0, 0
	for round := 0; round < 100; round++ {
		for i := round * 100; i < (round+1)*100; i++ {
			for _, e := range entries(i) {
				tbl.Add(e)
			}
		}
		if round == 0 {
			highOwners, highSlots = len(x.owners), len(x.ownerIDs.slots)
		}
		for i := round * 100; i < (round+1)*100; i++ {
			if es := entries(i); i%2 == 0 {
				for _, e := range es {
					tbl.Remove(e)
				}
			} else if got := tbl.RemoveClient(es[0].Client, es[0].SubID); len(got) != 2 {
				t.Fatalf("RemoveClient(%s/%s) removed %d entries, want 2", es[0].Client, es[0].SubID, len(got))
			}
		}
		if liveOwners() != baseLive || x.ownerIDs.live != baseTable {
			t.Fatalf("round %d: %d live owners, %d in the table; want the baseline %d/%d",
				round, liveOwners(), x.ownerIDs.live, baseLive, baseTable)
		}
	}
	if len(x.owners) > highOwners || len(x.ownerIDs.slots) > highSlots {
		t.Errorf("owner table grew with churn: %d owners, %d slots; high-water mark %d/%d",
			len(x.owners), len(x.ownerIDs.slots), highOwners, highSlots)
	}
	for _, e := range keep {
		tbl.Remove(e)
	}
	if st := tbl.IndexStats(); st != (IndexStats{}) {
		t.Errorf("after drain IndexStats = %+v, want zero", st)
	}
	if liveOwners() != 0 || x.ownerIDs.live != 0 {
		t.Errorf("after drain %d owners live, %d in the table", liveOwners(), x.ownerIDs.live)
	}
}
