// Package routing implements content-based routing tables and the routing
// strategies of Section 2.2: flooding, simple routing, identity-based
// routing, covering-based routing, and merging-based routing.
//
// A routing table holds (filter, hop) pairs: a notification matching the
// filter is forwarded along the hop. Mobile subscriptions additionally
// carry their owning (client, subscription) identity so that the
// relocation protocol of Section 4 can find and redirect the client's old
// delivery path at every broker.
//
// The forwarding decision — MatchingHops / MatchingEntries — is served by an
// access-predicate match index (see index.go) rather than a linear scan
// over the entries: every entry is posted under the one constraint of its
// filter estimated most selective, a notification probes the postings of
// the attributes it carries, and the rest of each hit's filter is then
// evaluated directly. The cost scales with the number of entries whose
// most selective constraint is satisfied, not with the table size; the
// result is Filter.Matches' whichever constraint was posted.
package routing

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/wire"
)

// Entry is one routing table row.
type Entry struct {
	Filter filter.Filter
	Hop    wire.Hop
	// Client/SubID identify the owning client subscription for mobile
	// (per-client) entries. Aggregate entries produced by the routing
	// strategies leave them empty.
	Client wire.ClientID
	SubID  wire.SubID
}

// IsClientEntry reports whether the entry is owned by a specific client
// subscription.
func (e Entry) IsClientEntry() bool { return e.Client != "" }

// key renders a unique identity string for the entry. The index itself
// identifies rows by content hash (see valtab.go) — this rendering
// survives for tests and diagnostics.
func (e Entry) key() string {
	var b strings.Builder
	b.WriteString(e.Filter.ID())
	b.WriteByte('#')
	b.WriteString(e.Hop.String())
	b.WriteByte('#')
	b.WriteString(string(e.Client))
	b.WriteByte('/')
	b.WriteString(string(e.SubID))
	return b.String()
}

// Table is a routing table backed by an access-predicate match index. The
// index owns all entry storage (SoA rows, interned hops and owners,
// content-hash identity — see index.go).
//
// A Table is owned by one goroutine — in a broker, its run loop — and is
// not safe for concurrent use: it has no lock, and every match runs out of
// the index's one scratch. Other goroutines reach it by asking the owner.
type Table struct {
	idx *matchIndex
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{idx: newMatchIndex()}
}

// Add inserts an entry, reporting whether it was not already present.
func (t *Table) Add(e Entry) bool {
	return t.idx.insertEntry(e)
}

// Remove deletes the exact entry, reporting whether it was present.
func (t *Table) Remove(e Entry) bool {
	return t.idx.removeEntry(e)
}

// Len returns the number of entries.
func (t *Table) Len() int {
	return t.idx.liveRows
}

// All returns a copy of every entry in the canonical deterministic order.
func (t *Table) All() []Entry {
	out := make([]Entry, 0, t.idx.liveRows)
	t.idx.forEachLiveSlot(func(slot int32, _ *row) {
		out = append(out, t.idx.entryAt(slot))
	})
	sortEntriesCanonical(out)
	return out
}

// sortEntriesCanonical orders entries by the shared canonical comparator
// (identity hash, then content) used by every enumeration API.
func sortEntriesCanonical(es []Entry) {
	slices.SortFunc(es, cmpEntryCanonical)
}

// MatchingHops returns the deduplicated hops whose filters match the
// notification, excluding the hop the notification arrived from (reverse
// path forwarding on the acyclic overlay).
func (t *Table) MatchingHops(n message.Notification, from wire.Hop) []wire.Hop {
	return t.idx.matchingHops(n, from)
}

func (x *matchIndex) matchingHops(n message.Notification, from wire.Hop) []wire.Hop {
	s := x.getScratch()
	defer x.putScratch(s)
	s.hopOut = s.hopOut[:0]
	for _, slot := range x.match(n, from, false, s) {
		hid := x.rows.at(slot).hopID
		hi := x.hops[hid]
		if _, dup := s.hopSeen[hid]; dup {
			continue
		}
		s.hopSeen[hid] = struct{}{}
		s.hopOut = append(s.hopOut, hopRef{key: hi.key, hop: hi.hop})
	}
	clear(s.hopSeen)
	if len(s.hopOut) == 0 {
		return nil
	}
	sort.Sort(byHopKey(s.hopOut))
	out := make([]wire.Hop, len(s.hopOut))
	for i, r := range s.hopOut {
		out[i] = r.hop
	}
	return out
}

type byHopKey []hopRef

func (h byHopKey) Len() int           { return len(h) }
func (h byHopKey) Less(i, j int) bool { return h[i].key < h[j].key }
func (h byHopKey) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

// MatchingEntries returns every entry whose filter matches the
// notification, excluding entries pointing back at from. It is
// EachMatchingEntry materialized into a slice.
func (t *Table) MatchingEntries(n message.Notification, from wire.Hop) []Entry {
	var out []Entry
	t.EachMatchingEntry(n, from, func(e *Entry) { out = append(out, *e) })
	return out
}

// EachMatchingEntry calls visit for every entry whose filter matches the
// notification, excluding entries pointing back at from — the same rows in
// the same deterministic order as MatchingEntries, but with no result
// allocation (the broker's publish hot path). The entry pointer is only
// valid during the call; visit must not retain it, modify it, or call
// table methods (the match in progress holds the table's one scratch).
func (t *Table) EachMatchingEntry(n message.Notification, from wire.Hop, visit func(*Entry)) {
	t.idx.eachMatching(n, from, false, func(e *Entry, _ int) { visit(e) })
}

// EachRoute is EachMatchingEntry for a router, which sends one copy of a
// notification per neighbor broker and delivers it once per client
// subscription: it visits every matching client-hop entry, but only one
// matching entry per broker hop — once a broker hop has a verified match,
// its other candidates are not verified, and once every hop other than
// from that holds an entry is such a broker hop, the match stops. The
// visited entries are a subset of EachMatchingEntry's, in the same order,
// and name the same hops.
//
// visit also receives the entry's owner id: a small non-negative integer
// the table gives the entry's (Client, SubID) identity, the same for every
// entry of it. It is the table's while the table holds an entry of that
// identity, and may name another identity once the last one is removed, so
// a caller that indexes state by it checks the identity it recorded.
func (t *Table) EachRoute(n message.Notification, from wire.Hop, visit func(e *Entry, owner int)) {
	t.idx.eachMatching(n, from, true, visit)
}

// ClientEntries returns the entries owned by the given client
// subscription. It walks the owner's posting list — O(entries for that
// client), not O(table) — so the relocation protocol's junction detection
// stays scale-independent; the empty owner identity, shared by every
// aggregate entry, keeps the full-scan path (see postings.go).
func (t *Table) ClientEntries(c wire.ClientID, id wire.SubID) []Entry {
	iid := t.idx.lookupOwner(c, id)
	if iid < 0 {
		return nil
	}
	var out []Entry
	if c == "" {
		t.idx.forEachLiveSlot(func(slot int32, r *row) {
			if r.identID == iid {
				out = append(out, t.idx.entryAt(slot))
			}
		})
	} else {
		for _, sg := range t.idx.owners[iid].posts.s {
			// A live generation implies the row is still the one the
			// posting was created for, so its identID is iid.
			if t.idx.rowLive(sg) {
				out = append(out, t.idx.entryAt(sg.slot))
			}
		}
	}
	sortEntriesCanonical(out)
	return out
}

// RemoveClient deletes all entries owned by the given client subscription
// and returns them. O(entries for that client) via the owner posting list;
// the empty owner identity falls back to the scan (see ClientEntries).
func (t *Table) RemoveClient(c wire.ClientID, id wire.SubID) []Entry {
	iid := t.idx.lookupOwner(c, id)
	if iid < 0 {
		return nil
	}
	if c == "" {
		return t.removeSelected(func(r *row) bool { return r.identID == iid })
	}
	return t.removeSlots(t.idx.owners[iid].posts.liveSlots(t.idx, nil))
}

// RemoveHop deletes all entries pointing along the given hop and returns
// them (used when a link or client goes away — the tree-repair bulk path).
// O(entries along that hop) via the hop posting list.
func (t *Table) RemoveHop(h wire.Hop) []Entry {
	hid, ok := t.idx.hopIDs[h]
	if !ok {
		return nil
	}
	return t.removeSlots(t.idx.hopPosts[hid].liveSlots(t.idx, nil))
}

// removeSlots deletes the given live rows, returning the removed entries
// in canonical order. The slot list must be a private copy (see
// mutPostings.liveSlots): removals compact posting lists in place.
func (t *Table) removeSlots(slots []int32) []Entry {
	if len(slots) == 0 {
		return nil
	}
	out := make([]Entry, 0, len(slots))
	for _, slot := range slots {
		out = append(out, t.idx.entryAt(slot))
		t.idx.removeSlot(slot)
	}
	sortEntriesCanonical(out)
	return out
}

// removeSelected deletes every live row the predicate selects, returning
// the removed entries in canonical order.
func (t *Table) removeSelected(sel func(r *row) bool) []Entry {
	var slots []int32
	var out []Entry
	t.idx.forEachLiveSlot(func(slot int32, r *row) {
		if sel(r) {
			slots = append(slots, slot)
			out = append(out, t.idx.entryAt(slot))
		}
	})
	for _, slot := range slots {
		t.idx.removeSlot(slot)
	}
	sortEntriesCanonical(out)
	return out
}

// EntriesNotFrom returns the filters of all entries whose hop differs from
// the given hop (the inputs to a forwarding decision toward that hop).
func (t *Table) EntriesNotFrom(h wire.Hop) []Entry {
	hid, ok := t.idx.hopIDs[h]
	if !ok {
		hid = -1 // hop never interned: nothing points along it
	}
	var out []Entry
	t.idx.forEachLiveSlot(func(slot int32, r *row) {
		if r.hopID != hid {
			out = append(out, t.idx.entryAt(slot))
		}
	})
	sortEntriesCanonical(out)
	return out
}

// OverlapsHop reports whether any entry from the given hop overlaps the
// filter (used to decide whether a subscription must travel toward an
// advertiser). It walks the hop's posting list with an early exit on the
// first overlap instead of scanning the table.
func (t *Table) OverlapsHop(f filter.Filter, h wire.Hop) bool {
	hid, ok := t.idx.hopIDs[h]
	if !ok {
		return false
	}
	for _, sg := range t.idx.hopPosts[hid].s {
		if t.idx.rowLive(sg) && t.idx.rows.at(sg.slot).f.Overlaps(f) {
			return true
		}
	}
	return false
}

// HopsOverlapping returns the hops having at least one entry overlapping
// f, excluding from. Per hop it walks that hop's posting list and stops at
// the first overlap, so the cost is driven by the interned hop count plus
// the postings actually examined, not the table size.
func (t *Table) HopsOverlapping(f filter.Filter, from wire.Hop) []wire.Hop {
	var refs []hopRef
	for hid := range t.idx.hops {
		hi := &t.idx.hops[hid]
		if hi.hop == from {
			continue
		}
		for _, sg := range t.idx.hopPosts[hid].s {
			if t.idx.rowLive(sg) && t.idx.rows.at(sg.slot).f.Overlaps(f) {
				refs = append(refs, hopRef{key: hi.key, hop: hi.hop})
				break
			}
		}
	}
	if len(refs) == 0 {
		return nil
	}
	sort.Sort(byHopKey(refs))
	out := make([]wire.Hop, len(refs))
	for i, r := range refs {
		out[i] = r.hop
	}
	return out
}

// IndexStats describes the match index's current shape.
func (t *Table) IndexStats() IndexStats {
	return IndexStats{
		Entries:       t.idx.liveRows,
		Attrs:         len(t.idx.attrs),
		Postings:      t.idx.postings,
		MatchAll:      t.idx.matchAll.liveCount(),
		IdentPostings: t.idx.identPostLive,
		HopPostings:   t.idx.hopPostLive,
	}
}
