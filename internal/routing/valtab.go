package routing

import (
	"math"
	"slices"
	"strings"

	"repro/internal/filter"
	"repro/internal/message"
)

// Content hashing and identity for the SoA match index.
//
// The old index identified rows by rendered key strings (Filter.ID() +
// Hop.String() + client/sub), which costs one long heap string per row —
// unaffordable at 10⁶ entries. The SoA index instead identifies rows by a
// 64-bit content hash plus structural equality, with two distinct value
// equivalences:
//
//   - identity equivalence (duplicate detection, Remove lookup) follows the
//     Value.Key() string semantics: every NaN is one identity ("NaN"),
//     while -0.0 and +0.0 are distinct ("-0" vs "0").
//   - match equivalence (equality posting buckets) follows Value.Equal:
//     -0.0 == +0.0 share a bucket, NaN equals nothing and is never posted.
//
// Both are expressed as a (kind, bits, str) triple so they can key the
// open-addressed tables below without string rendering.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// canonicalNaNBits is the single bit pattern all NaNs normalize to under
// identity equivalence (mirrors Value.Key rendering every NaN as "NaN").
var canonicalNaNBits = math.Float64bits(math.NaN())

func hashStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func hashU64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

func hashU8(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

// identPayload maps a value to its identity-equivalence payload.
func identPayload(v message.Value) (bits uint64, str string) {
	switch v.Kind() {
	case message.KindString:
		return 0, v.Str()
	case message.KindInt:
		return uint64(v.IntVal()), ""
	case message.KindFloat:
		f := v.FloatVal()
		if f != f {
			return canonicalNaNBits, ""
		}
		return math.Float64bits(f), ""
	case message.KindBool:
		if v.BoolVal() {
			return 1, ""
		}
		return 0, ""
	}
	return 0, ""
}

// eqPayload maps a value to its match-equivalence payload. NaN values must
// not be posted at all (callers guard with isNaNValue).
func eqPayload(v message.Value) (bits uint64, str string) {
	switch v.Kind() {
	case message.KindString:
		return 0, v.Str()
	case message.KindInt:
		return uint64(v.IntVal()), ""
	case message.KindFloat:
		f := v.FloatVal()
		if f == 0 {
			f = 0 // collapse -0.0 into +0.0: Value.Equal treats them equal
		}
		return math.Float64bits(f), ""
	case message.KindBool:
		if v.BoolVal() {
			return 1, ""
		}
		return 0, ""
	}
	return 0, ""
}

func hashValueIdent(h uint64, v message.Value) uint64 {
	bits, str := identPayload(v)
	h = hashU8(h, byte(v.Kind()))
	h = hashU64(h, bits)
	return hashStr(h, str)
}

func identValueEqual(a, b message.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	ab, as := identPayload(a)
	bb, bs := identPayload(b)
	return ab == bb && as == bs
}

// cmpValueIdent is a deterministic total order consistent with identity
// equivalence (used for canonical row ordering, not numeric semantics).
func cmpValueIdent(a, b message.Value) int {
	if ak, bk := a.Kind(), b.Kind(); ak != bk {
		if ak < bk {
			return -1
		}
		return 1
	}
	ab, as := identPayload(a)
	bb, bs := identPayload(b)
	if ab != bb {
		if ab < bb {
			return -1
		}
		return 1
	}
	return strings.Compare(as, bs)
}

func hashConstraintIdent(h uint64, c filter.Constraint) uint64 {
	h = hashStr(h, c.Attr)
	h = hashU8(h, byte(c.Op))
	// A range's low bound lives in Value, but it hashes as it did when it
	// had a field of its own after Value: an unset value, then the bounds.
	// The hash orders rows, so this keeps canonical match order unchanged.
	first, lo := c.Value, message.Value{}
	if c.Op == filter.OpRange {
		first, lo = lo, first
	}
	h = hashValueIdent(h, first)
	h = hashValueIdent(h, lo)
	h = hashValueIdent(h, c.Hi)
	h = hashU64(h, uint64(len(c.Values)))
	for _, v := range c.Values {
		h = hashValueIdent(h, v)
	}
	return h
}

func identConstraintEqual(a, b filter.Constraint) bool {
	if a.Attr != b.Attr || a.Op != b.Op || len(a.Values) != len(b.Values) {
		return false
	}
	if !identValueEqual(a.Value, b.Value) || !identValueEqual(a.Hi, b.Hi) {
		return false
	}
	for i := range a.Values {
		if !identValueEqual(a.Values[i], b.Values[i]) {
			return false
		}
	}
	return true
}

func cmpConstraintIdent(a, b filter.Constraint) int {
	if c := strings.Compare(a.Attr, b.Attr); c != 0 {
		return c
	}
	if a.Op != b.Op {
		if a.Op < b.Op {
			return -1
		}
		return 1
	}
	if c := cmpValueIdent(a.Value, b.Value); c != 0 {
		return c
	}
	if c := cmpValueIdent(a.Hi, b.Hi); c != 0 {
		return c
	}
	if la, lb := len(a.Values), len(b.Values); la != lb {
		if la < lb {
			return -1
		}
		return 1
	}
	for i := range a.Values {
		if c := cmpValueIdent(a.Values[i], b.Values[i]); c != 0 {
			return c
		}
	}
	return 0
}

func hashFilterIdent(h uint64, f filter.Filter) uint64 {
	n := f.Len()
	h = hashU64(h, uint64(n))
	for i := 0; i < n; i++ {
		h = hashConstraintIdent(h, f.At(i))
	}
	return h
}

func identFilterEqual(a, b filter.Filter) bool {
	n := a.Len()
	if n != b.Len() {
		return false
	}
	for i := 0; i < n; i++ {
		if !identConstraintEqual(a.At(i), b.At(i)) {
			return false
		}
	}
	return true
}

func cmpFilterIdent(a, b filter.Filter) int {
	na, nb := a.Len(), b.Len()
	n := min(na, nb)
	for i := 0; i < n; i++ {
		if c := cmpConstraintIdent(a.At(i), b.At(i)); c != 0 {
			return c
		}
	}
	if na != nb {
		if na < nb {
			return -1
		}
		return 1
	}
	return 0
}

// entryIdentHash hashes an entry's full identity (filter, hop, owner); it
// is a pure function of content, so equal entries hash equal across
// processes and tables.
func entryIdentHash(e Entry) uint64 {
	h := hashFilterIdent(fnvOffset64, e.Filter)
	h = hashStr(h, string(e.Hop.Broker))
	h = hashU8(h, '#')
	h = hashStr(h, string(e.Hop.Client))
	h = hashU8(h, '#')
	h = hashStr(h, string(e.Client))
	h = hashU8(h, '/')
	return hashStr(h, string(e.SubID))
}

// cmpEntryContent is the canonical tie-break order for rows whose hashes
// collide: filter, then hop, then owner. Combined with the hash it yields
// the deterministic row order every matching and enumeration API sorts by;
// the tests' linear-scan reference uses the same comparator so parity
// tests can compare results structurally.
func cmpEntryContent(a, b Entry) int {
	if c := cmpFilterIdent(a.Filter, b.Filter); c != 0 {
		return c
	}
	if c := strings.Compare(string(a.Hop.Broker), string(b.Hop.Broker)); c != 0 {
		return c
	}
	if c := strings.Compare(string(a.Hop.Client), string(b.Hop.Client)); c != 0 {
		return c
	}
	if c := strings.Compare(string(a.Client), string(b.Client)); c != 0 {
		return c
	}
	return strings.Compare(string(a.SubID), string(b.SubID))
}

// cmpEntryCanonical orders entries by (identity hash, content) — the
// canonical deterministic order of every Table enumeration.
func cmpEntryCanonical(a, b Entry) int {
	ha, hb := entryIdentHash(a), entryIdentHash(b)
	if ha != hb {
		if ha < hb {
			return -1
		}
		return 1
	}
	return cmpEntryContent(a, b)
}

// ---------------------------------------------------------------------------
// slotGen: a generation-stamped row reference.
// ---------------------------------------------------------------------------

// slotGen references a row slot at a specific generation. Posting lists
// store slotGens and never remove them eagerly: freeing a row bumps its
// generation, so stale postings fail the gen check at probe time and are
// physically dropped by the next amortized compaction. (The 32-bit
// generation wraps after 2³² reuses of one slot — beyond any realistic
// churn between compactions.)
type slotGen struct {
	slot int32
	gen  uint32
}

// postOwner is what the posting containers need from the index whose rows
// they post: whether a posting still references a live row, which
// compaction asks. The match index is one owner; the cover index's two
// posting planes are the others (coverindex.go).
type postOwner interface {
	rowLive(sg slotGen) bool
}

// candSink takes what a probe finds. candidate is a posting whose
// constraint the probe has proved for the probed value (or, for the cover
// index's relation probes, could not rule out); scanned is a scan-list
// posting about which nothing has been proved. Neither is deduplicated by
// the containers.
type candSink interface {
	candidate(sg slotGen)
	scanned(sg slotGen)
}

// ---------------------------------------------------------------------------
// valTable: open-addressed value → posting-chain table.
// ---------------------------------------------------------------------------

// valTable buckets postings by a (kind, bits, str) value key: equality
// postings keyed by match-equivalent operand, and prefix postings keyed by
// the prefix string. The first posting is stored inline in the bucket (the
// common case is one subscription per distinct value); further postings
// chain through a node arena. Buckets are only reclaimed by rehash-compact,
// triggered when lazily-deleted postings outnumber live ones.
type valTable struct {
	slots pvec[vtSlot]
	arena pvec[vtNode]
	used  int32 // occupied buckets
	live  int32 // live postings
	dead  int32 // postings invalidated by row-generation bumps
}

// vtSlot is one bucket: 40 bytes, the dominant per-distinct-value cost of
// the index at scale. The key hash is not stored — lookups recompute it
// once per probe anyway, occupied slots compare the key directly, and
// rehash re-derives it — and occupancy is encoded in the kind (a real key
// always has a valid value kind, so KindInvalid marks an empty bucket).
type vtSlot struct {
	bits  uint64
	str   string
	first slotGen
	more  int32        // chain head into arena; -1 terminates
	kind  message.Kind // KindInvalid: empty bucket
}

type vtNode struct {
	sg   slotGen
	next int32
}

func hashValKey(kind message.Kind, bits uint64, str string) uint64 {
	h := hashU8(fnvOffset64, byte(kind))
	h = hashU64(h, bits)
	return hashStr(h, str)
}

func (t *valTable) cap() int32 { return int32(t.slots.len()) }

// lookup returns the bucket index holding the key, or -1.
func (t *valTable) lookup(hash uint64, kind message.Kind, bits uint64, str string) int32 {
	c := t.cap()
	if c == 0 {
		return -1
	}
	mask := c - 1
	for i := int32(hash) & mask; ; i = (i + 1) & mask {
		sl := t.slots.at(i)
		if sl.kind == message.KindInvalid {
			return -1
		}
		if sl.kind == kind && sl.bits == bits && sl.str == str {
			return i
		}
	}
}

func (t *valTable) add(x postOwner, kind message.Kind, bits uint64, str string, sg slotGen) {
	if t.cap() == 0 {
		t.rehash(x, 8)
	} else if (t.used+1)*4 > t.cap()*3 {
		t.rehash(x, t.cap()*2)
	}
	hash := hashValKey(kind, bits, str)
	mask := t.cap() - 1
	for i := int32(hash) & mask; ; i = (i + 1) & mask {
		sl := t.slots.at(i)
		if sl.kind == message.KindInvalid {
			*sl = vtSlot{bits: bits, str: str, first: sg, more: -1, kind: kind}
			t.used++
			break
		}
		if sl.kind == kind && sl.bits == bits && sl.str == str {
			ni := t.arena.grow()
			*t.arena.at(ni) = vtNode{sg: sg, next: sl.more}
			sl.more = ni
			break
		}
	}
	t.live++
}

// removeLazy records a posting deletion; the row-generation bump does the
// real invalidation. Compaction runs when dead postings dominate.
func (t *valTable) removeLazy(x postOwner) {
	t.live--
	t.dead++
	if t.dead > t.live && t.dead > 32 {
		t.compact(x)
	}
}

func (t *valTable) compact(x postOwner) {
	c := int32(8)
	for c*3 < t.live*4 {
		c *= 2
	}
	t.rehash(x, c)
}

// rehash rebuilds the table at the given power-of-two capacity, dropping
// generation-stale postings and the buckets they leave empty.
//
// live stays the count of postings added and not yet removeLazy'd, and
// dead becomes what is physically kept beyond it. The two differ when a
// rehash runs between the removals of one row with several postings here
// (an in-set's members): its generation bump has made all of them stale,
// so all are dropped, and dead stays negative until the rest of that
// row's removals are counted.
func (t *valTable) rehash(x postOwner, newCap int32) {
	old := *t
	t.slots = pvec[vtSlot]{}
	t.arena = pvec[vtNode]{}
	t.used, t.live, t.dead = 0, 0, 0
	for i := int32(0); i < newCap; i++ {
		t.slots.grow()
	}
	for i := int32(0); i < old.cap(); i++ {
		sl := old.slots.at(i)
		if sl.kind == message.KindInvalid {
			continue
		}
		if x.rowLive(sl.first) {
			t.add(x, sl.kind, sl.bits, sl.str, sl.first)
		}
		for ni := sl.more; ni >= 0; {
			nd := old.arena.at(ni)
			if x.rowLive(nd.sg) {
				t.add(x, sl.kind, sl.bits, sl.str, nd.sg)
			}
			ni = nd.next
		}
	}
	t.live, t.dead = old.live, t.live-old.live
}

// probe reports every posting under the key as a candidate.
func (t *valTable) probe(kind message.Kind, bits uint64, str string, s candSink) {
	i := t.lookup(hashValKey(kind, bits, str), kind, bits, str)
	if i < 0 {
		return
	}
	sl := t.slots.at(i)
	s.candidate(sl.first)
	for ni := sl.more; ni >= 0; {
		nd := t.arena.at(ni)
		s.candidate(nd.sg)
		ni = nd.next
	}
}

// ---------------------------------------------------------------------------
// prefixTable: per-length prefix lookup.
// ---------------------------------------------------------------------------

// prefixTable indexes string-prefix constraints: postings are bucketed by
// the exact prefix string in a valTable, and a sorted directory of the
// distinct prefix lengths drives the probe — for each registered length L ≤
// len(v), one hash lookup of v[:L]. Probe cost is O(distinct lengths), not
// O(postings sharing a first byte) as in the old per-byte bucket scan.
type prefixTable struct {
	tab  valTable
	lens []prefixLen
}

type prefixLen struct {
	n     int32
	count int32 // live prefixes of this length
}

func (p *prefixTable) add(x postOwner, prefix string, sg slotGen) {
	p.tab.add(x, message.KindString, uint64(len(prefix)), prefix, sg)
	n := int32(len(prefix))
	i := 0
	for i < len(p.lens) && p.lens[i].n < n {
		i++
	}
	if i < len(p.lens) && p.lens[i].n == n {
		p.lens[i].count++
		return
	}
	p.lens = slices.Insert(p.lens, i, prefixLen{n: n, count: 1})
}

func (p *prefixTable) remove(x postOwner, prefix string) {
	p.tab.removeLazy(x)
	n := int32(len(prefix))
	for i := range p.lens {
		if p.lens[i].n == n {
			p.lens[i].count--
			if p.lens[i].count == 0 {
				p.lens = slices.Delete(p.lens, i, i+1)
			}
			return
		}
	}
}

func (p *prefixTable) probe(v string, s candSink) {
	for _, pl := range p.lens {
		if int(pl.n) > len(v) {
			return // lengths sorted ascending: no longer prefix can match
		}
		pre := v[:pl.n]
		p.tab.probe(message.KindString, uint64(pl.n), pre, s)
	}
}

// ---------------------------------------------------------------------------
// pairTable: pair postings, keyed by equality operand and second attribute.
// ---------------------------------------------------------------------------

// pairTable holds the pair postings of one equality attribute: a row
// posted under the pair "this = v" and an ordered constraint on attribute b
// sits in the bucket keyed by (v, b), in an interval list of its bounds on
// b. Buckets are placed by the hash of v alone, so every bucket of v — one
// per second attribute — lies on one probe run, and a probe with v walks
// that run once. As in valTable, buckets are only reclaimed by rehash, once
// most of them hold no live posting.
type pairTable struct {
	slots pvec[pairSlot]
	used  int32 // occupied buckets
	idle  int32 // occupied buckets whose list holds no live posting
	live  int32 // live postings
}

type pairSlot struct {
	bits uint64
	str  string
	attr string // the second, ordered attribute
	list *pairList
	kind message.Kind // KindInvalid: empty bucket
}

// pairList is one bucket's postings, held by pointer so a bucket moves
// cheaply when the table rehashes.
type pairList struct {
	live int32
	iv   ivSet
}

func (t *pairTable) cap() int32 { return int32(t.slots.len()) }

// find returns the bucket of (kind, bits, str, attr), or the empty bucket
// ending its probe run and false.
func (t *pairTable) find(kind message.Kind, bits uint64, str, attr string) (int32, bool) {
	mask := t.cap() - 1
	for i := int32(hashValKey(kind, bits, str)) & mask; ; i = (i + 1) & mask {
		sl := t.slots.at(i)
		if sl.kind == message.KindInvalid {
			return i, false
		}
		if sl.kind == kind && sl.bits == bits && sl.str == str && sl.attr == attr {
			return i, true
		}
	}
}

// add posts sg under the pair of "= v" and the interval q on attr.
func (t *pairTable) add(x postOwner, v message.Value, attr string, q ivShape, sg slotGen) {
	if t.cap() == 0 || (t.used+1)*4 > t.cap()*3 {
		t.rehash(pairCapFor(2 * (t.used - t.idle + 1)))
	}
	bits, str := eqPayload(v)
	i, ok := t.find(v.Kind(), bits, str, attr)
	if !ok {
		*t.slots.at(i) = pairSlot{bits: bits, str: str, attr: attr, list: &pairList{}, kind: v.Kind()}
		t.used++
		t.idle++
	}
	l := t.slots.at(i).list
	if l.live == 0 {
		t.idle--
	}
	l.live++
	l.iv.insert(x, q, sg)
	t.live++
}

// remove mirrors add for a row whose generation has already moved on.
func (t *pairTable) remove(x postOwner, v message.Value, attr string, kind message.Kind) {
	bits, str := eqPayload(v)
	i, _ := t.find(v.Kind(), bits, str, attr) // add made it
	l := t.slots.at(i).list
	l.iv.removeLazy(x, kind)
	l.live--
	t.live--
	if l.live == 0 {
		if t.idle++; t.idle > 8 && t.idle*2 > t.used {
			t.rehash(pairCapFor(2 * (t.used - t.idle)))
		}
	}
}

// pairCapFor returns the power-of-two capacity that holds n buckets.
func pairCapFor(n int32) int32 {
	c := int32(8)
	for c*3 < n*4 {
		c *= 2
	}
	return c
}

// rehash rebuilds the table at the given capacity, dropping idle buckets.
// Their lists hold no live posting: every row posted there has had its
// generation bumped.
func (t *pairTable) rehash(newCap int32) {
	old, oldCap := t.slots, t.cap()
	t.slots = pvec[pairSlot]{}
	for i := int32(0); i < newCap; i++ {
		t.slots.grow()
	}
	t.used, t.idle = 0, 0
	for i := int32(0); i < oldCap; i++ {
		sl := old.at(i)
		if sl.kind == message.KindInvalid || sl.list.live == 0 {
			continue
		}
		j, _ := t.find(sl.kind, sl.bits, sl.str, sl.attr)
		*t.slots.at(j) = *sl
		t.used++
	}
}

// probe reports the rows of every bucket of v whose interval admits n's
// value of the bucket's second attribute. v must not be NaN. Pairs are a
// match-plane posting only, so x is always the match index (see
// ivlist.probe).
func (t *pairTable) probe(x postOwner, v message.Value, n message.Notification, s candSink) {
	kind := v.Kind()
	bits, str := eqPayload(v)
	mask := t.cap() - 1
	for i := int32(hashValKey(kind, bits, str)) & mask; ; i = (i + 1) & mask {
		sl := t.slots.at(i)
		if sl.kind == message.KindInvalid {
			return
		}
		if sl.kind == kind && sl.bits == bits && sl.str == str && sl.list.live > 0 {
			if w, ok := n.Get(sl.attr); ok {
				sl.list.iv.probe(x, w, s)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// identTable: identity-hash slot table (mutation plane only).
// ---------------------------------------------------------------------------

// identTable maps 64-bit identity hashes to slots of its holder's array
// for duplicate detection and exact lookup: the match index's rows and
// owners, a filterSet's filters. It lives on the mutation plane: matching
// never reads it.
//
// A bucket is just the slot — 4 bytes, not a (hash, slot) pair. The holder
// keeps (or can recompute) each slot's hash, so lookups verify it through
// the slot (every slot in the table references a live element: holders
// remove the table entry before freeing the slot) and grow re-derives it
// through hashOf. At two buckets per element this halves and then halves
// again what a 10⁶-entry table spends on duplicate detection.
type identTable struct {
	slots []int32 // slot; idEmpty / idTomb are sentinels
	used  int     // live + tombstones
	live  int
}

const (
	idEmpty int32 = -1
	idTomb  int32 = -2
)

// lookup finds the slot with the given identity hash for which eq returns
// true, or -1. eq must verify the hash along with the content (the table
// does not pre-filter collisions).
func (t *identTable) lookup(hash uint64, eq func(slot int32) bool) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := int(hash) & mask; ; i = (i + 1) & mask {
		switch sl := t.slots[i]; {
		case sl == idEmpty:
			return -1
		case sl == idTomb:
		case eq(sl):
			return sl
		}
	}
}

// insert adds slot under hash; hashOf returns the hash of any slot in the
// table, for rehashing when it grows.
func (t *identTable) insert(hash uint64, slot int32, hashOf func(slot int32) uint64) {
	if len(t.slots) == 0 || (t.used+1)*4 > len(t.slots)*3 {
		t.grow(hashOf)
	}
	mask := len(t.slots) - 1
	for i := int(hash) & mask; ; i = (i + 1) & mask {
		if t.slots[i] == idEmpty || t.slots[i] == idTomb {
			t.slots[i] = slot
			t.used++
			t.live++
			return
		}
	}
}

func (t *identTable) remove(hash uint64, slot int32) {
	if len(t.slots) == 0 {
		return
	}
	mask := len(t.slots) - 1
	for i := int(hash) & mask; ; i = (i + 1) & mask {
		sl := t.slots[i]
		if sl == idEmpty {
			return
		}
		if sl == slot {
			t.slots[i] = idTomb
			t.live--
			return
		}
	}
}

// grow rehashes into a table sized for the live slots, dropping tombstones:
// a table whose elements come and go stays sized by what is live.
func (t *identTable) grow(hashOf func(slot int32) uint64) {
	n := 8
	for n*3 < (t.live+1)*4 {
		n *= 2
	}
	old := t.slots
	t.slots = make([]int32, n)
	for i := range t.slots {
		t.slots[i] = idEmpty
	}
	t.used, t.live = 0, 0
	for _, sl := range old {
		if sl >= 0 {
			t.insert(hashOf(sl), sl, hashOf)
		}
	}
}

// ---------------------------------------------------------------------------
// filterSet: distinct filters by identity.
// ---------------------------------------------------------------------------

// filterSet holds distinct filters by identity — hashFilterIdent, verified
// with identFilterEqual — each reference counted in a stable slot. It is
// the routing package's notion of "the same filter": no rendered ID is
// stored, and two filters whose IDs collide stay apart.
type filterSet struct {
	items []setItem
	free  []int32
	ids   identTable
}

type setItem struct {
	f    filter.Filter
	hash uint64
	refs int32 // 0 marks a free slot
}

func (s *filterSet) len() int                 { return s.ids.live }
func (s *filterSet) hashAt(slot int32) uint64 { return s.items[slot].hash }

// find returns the slot holding f, whose identity hash is h, or -1.
func (s *filterSet) find(f filter.Filter, h uint64) int32 {
	return s.ids.lookup(h, func(slot int32) bool {
		it := &s.items[slot]
		return it.hash == h && identFilterEqual(it.f, f)
	})
}

// add takes one more reference to f and returns its slot, reporting
// whether f is new to the set.
func (s *filterSet) add(f filter.Filter) (int32, bool) {
	h := hashFilterIdent(fnvOffset64, f)
	if slot := s.find(f, h); slot >= 0 {
		s.items[slot].refs++
		return slot, false
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
	} else {
		slot = int32(len(s.items))
		s.items = append(s.items, setItem{})
	}
	s.items[slot] = setItem{f: f, hash: h, refs: 1}
	s.ids.insert(h, slot, s.hashAt)
	return slot, true
}

// remove drops one reference to f and returns its slot (-1 if f is not
// held), reporting whether it was the last. The last reference frees the
// slot and hands back the filter it held.
func (s *filterSet) remove(f filter.Filter) (slot int32, held filter.Filter, last bool) {
	h := hashFilterIdent(fnvOffset64, f)
	if slot = s.find(f, h); slot < 0 {
		return -1, filter.Filter{}, false
	}
	it := &s.items[slot]
	if it.refs--; it.refs > 0 {
		return slot, filter.Filter{}, false
	}
	held = it.f
	s.ids.remove(h, slot)
	*it = setItem{}
	s.free = append(s.free, slot)
	return slot, held, true
}

// filters returns the held filters in canonical order.
func (s *filterSet) filters() []filter.Filter {
	out := make([]filter.Filter, 0, s.len())
	for i := range s.items {
		if s.items[i].refs > 0 {
			out = append(out, s.items[i].f)
		}
	}
	sortFiltersByID(out)
	return out
}
