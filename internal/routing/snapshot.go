package routing

import (
	"repro/internal/message"
	"repro/internal/wire"
)

// Snapshot is an immutable, point-in-time view of a Table's match state.
// Any number of goroutines may match against a snapshot concurrently and
// lock-free: nothing in it is ever mutated after construction (the
// per-match scratch comes from a shared pool). The broker's
// parallel publish pipeline hands one snapshot to its matching workers per
// publish run; control messages that mutate the table invalidate the
// cached snapshot, so the next run observes a fresh one.
type Snapshot struct {
	gen     uint64 // table generation the snapshot was built at
	idx     *matchIndex
	entries int
}

// Gen returns the table mutation generation this snapshot was built at.
// A snapshot built after a mutation always carries a strictly larger
// generation, which is what the broker's control/data ordering argument
// rests on: a publish matched against snapshot gen G sees every sub/unsub
// acknowledged before G was built.
func (sn *Snapshot) Gen() uint64 { return sn.gen }

// Len returns the number of table entries captured by the snapshot.
func (sn *Snapshot) Len() int { return sn.entries }

// EachMatchingEntry calls visit for every captured entry whose filter
// matches the notification, excluding entries pointing back at from — the
// same rows in the same deterministic (canonical) order as
// Table.EachMatchingEntry at the moment the snapshot was taken. It is safe
// to call from any number of goroutines concurrently. The entry pointer is
// only valid during the call; visit must not retain or modify it.
func (sn *Snapshot) EachMatchingEntry(n message.Notification, from wire.Hop, visit func(*Entry)) {
	sn.idx.eachMatching(n, from, false, visit)
}

// EachRoute is Table.EachRoute on the snapshot: every matching client-hop
// entry, one matching entry per broker hop. Safe for concurrent use, like
// EachMatchingEntry.
func (sn *Snapshot) EachRoute(n message.Notification, from wire.Hop, visit func(*Entry)) {
	sn.idx.eachMatching(n, from, true, visit)
}

// MatchingEntries is EachMatchingEntry materialized into a slice
// (tests and diagnostics; the hot path uses the visitor).
func (sn *Snapshot) MatchingEntries(n message.Notification, from wire.Hop) []Entry {
	var out []Entry
	sn.EachMatchingEntry(n, from, func(e *Entry) { out = append(out, *e) })
	return out
}

// SnapshotStats describes a table's copy-on-write snapshot activity.
type SnapshotStats struct {
	// Gen counts table mutations (each one invalidates the cached
	// snapshot; the next Snapshot call swaps in a fresh pointer).
	Gen uint64
	// Builds counts snapshot constructions: Clones are O(1) shared views
	// of the live index (the copy-on-write epoch fence makes subsequent
	// mutations copy what the snapshot can see), Rebuilds compacting
	// from-scratch constructions. Builds == Clones + Rebuilds.
	Builds, Clones, Rebuilds uint64
}

// Snapshot returns an immutable snapshot of the table's current match
// state. Snapshots are cached: until the next mutation, every call returns
// the same pointer, so a burst of publishes between two control messages
// pays for at most one snapshot build (lazy copy-on-write — the "write"
// only marks the cache stale, the copy happens at the next read).
//
// Build policy (rebuild vs clone): a clone shares the live index's pages
// behind the copy-on-write epoch fence — O(1), no structural copy; the
// mutations that follow pay one page copy per page they touch. That makes
// clones cheap at any size, but a clone inherits the live index's
// fragmentation (free slots and lazily-deleted postings left by removed
// entries). A rebuild re-inserts every live entry into a fresh index,
// compacting the row vector back to the live entry count; the rebuilt
// index also replaces the live one, so the compaction pays off for every
// later snapshot rather than being repeated per snapshot. Clone is the
// default; rebuild kicks in when churn has left the row vector more than
// half holes.
func (t *Table) Snapshot() *Snapshot {
	if sn := t.snap.Load(); sn != nil {
		return sn
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sn := t.snap.Load(); sn != nil {
		// Another goroutine built it between our fast path and the lock.
		return sn
	}
	if 2*len(t.idx.free.s) > t.idx.rows.len() {
		t.idx = t.idx.rebuild()
		t.snapRebuilds++
	} else {
		t.snapClones++
	}
	sn := &Snapshot{gen: t.gen, idx: t.idx.share(), entries: t.idx.liveRows}
	t.snap.Store(sn)
	return sn
}

// SnapshotStats returns the table's snapshot activity counters.
func (t *Table) SnapshotStats() SnapshotStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return SnapshotStats{
		Gen:      t.gen,
		Builds:   t.snapClones + t.snapRebuilds,
		Clones:   t.snapClones,
		Rebuilds: t.snapRebuilds,
	}
}

// invalidateSnapshot bumps the mutation generation and drops the cached
// snapshot. Callers hold t.mu. Outstanding snapshots stay valid — the
// epoch fence makes later mutations copy-on-write anything they share —
// but the next Snapshot call builds a fresh one.
func (t *Table) invalidateSnapshot() {
	t.gen++
	t.snap.Store(nil)
}
