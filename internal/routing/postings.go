package routing

// Mutation-plane enumeration postings for the mobility control path.
//
// The relocation protocol of Section 4 — junction detection, path
// flipping, replay routing, counterpart GC — and the tree-repair path of
// RemoveLink all enumerate a table by owner identity or by hop:
// ClientEntries, RemoveClient, RemoveHop, OverlapsHop, HopsOverlapping.
// Before these lists existed, every such call was a full forEachLiveSlot
// scan, so one relocation against a 10⁶-entry table cost millions of row
// visits. The per-ident and per-hop posting lists below make those paths
// O(entries for that ident/hop): the same generation-checked,
// lazy-deletion, amortized-compaction representation as the match-plane
// posting lists, but owned by the mutation plane — like identTable, never
// read on the match path.

// mutPostings is one mutation-plane slot posting list. Freeing a row bumps
// its generation, which invalidates its posting here at walk time (see
// rowLive); removeLazy only counts deletions and rewrites the list once
// dead postings dominate, so storage stays proportional to the live
// entries, amortized.
type mutPostings struct {
	s    []slotGen
	dead int32
}

func (p *mutPostings) add(sg slotGen) {
	p.s = append(p.s, sg)
}

// removeLazy records one posting invalidation (the row-generation bump is
// the real deletion) and compacts in place once dead postings outnumber
// live ones.
func (p *mutPostings) removeLazy(x *matchIndex) {
	p.dead++
	if int(p.dead) > len(p.s)-int(p.dead) && p.dead > 8 {
		kept := p.s[:0]
		for _, sg := range p.s {
			if x.rowLive(sg) {
				kept = append(kept, sg)
			}
		}
		p.s = kept
		p.dead = 0
	}
}

// liveSlots appends the slots of the list's live postings to buf and
// returns it. The result is a private copy: callers may removeSlot the
// collected rows afterwards — which compacts this very list in place —
// without invalidating the walk.
func (p *mutPostings) liveSlots(x *matchIndex, buf []int32) []int32 {
	for _, sg := range p.s {
		if x.rowLive(sg) {
			buf = append(buf, sg.slot)
		}
	}
	return buf
}
