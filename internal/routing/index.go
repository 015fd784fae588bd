package routing

import (
	"math"
	"slices"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/wire"
)

// matchIndex is an access-predicate index over the table's entries. Every
// row is posted once: under one of its filter's constraints — its access
// predicate, the one the index estimates fewest notifications satisfy (see
// selectivity) — in a typed posting list keyed by (attribute, operator
// class), or, when it has an equality and an ordered constraint on another
// attribute, under that pair (see chooseAccess). Matching a notification
// probes the posting lists of the attributes it carries; each hit is a
// candidate row whose posted constraints the probe has just proved, and —
// unless one word of equality bits already rules the row out (see needs) —
// the rest of its filter is evaluated directly against the notification
// (filter.MatchesExcept, the reference semantics). The per-notification
// cost is therefore the number of rows whose posting is satisfied, not the
// number of satisfied constraints and not the table size.
//
// The result does not depend on which constraint was chosen: a row is
// reported exactly when its access constraint and every other constraint
// hold, i.e. when Filter.Matches does. The choice only moves cost. It is
// made once, at insert, from what the index knows then, and recorded in the
// row.
//
// Storage is struct-of-arrays, sized for 10⁶ entries: rows live in a paged
// vector indexed by int32 slot, hops are interned once into an append-only
// side table and owner identities into a reference-counted one, and every
// posting is an 8-byte slot+generation pair. There are no per-entry heap
// nodes and no rendered key strings; row identity is a 64-bit content hash
// resolved through an open-addressed identity table.
//
// Posting lists by operator class:
//
//   - equality (=, in):      open-addressed buckets keyed by operand value
//   - ordered (<, <=, >, >=, range): sorted static runs with max-upper-bound
//     segment trees (see ivlist.go), O(log n + k) per probe
//   - string prefix:         per-length hash lookup (see prefixTable)
//   - equality + ordered pair: per (operand value, second attribute) an
//     interval list on the second attribute (see pairTable)
//   - exists:                a flat list, satisfied by attribute presence
//   - everything else (!=, suffix, contains): a per-attribute scan list
//     whose rows are evaluated whole against the notification
//
// Removal is logical-first: freeing a row bumps its generation, which
// invalidates its postings everywhere at once; posting storage is
// reclaimed by per-container amortized compaction. The index is maintained
// incrementally by insertEntry/removeSlot and written in place. Like its
// Table it belongs to one goroutine: nothing reads it while it changes,
// and one scratch serves every match (see scratch).
type matchIndex struct {
	rows pvec[row]
	// needs is parallel to rows: one bit per residual equality constraint
	// of the row's filter (see eqBit). A notification whose own bits lack
	// one of them cannot match, which a candidate check reads here, eight
	// rows to a cache line, without touching the filter's constraints —
	// most candidates of a row posted under a range fail on a residual
	// equality, and a constraint is a cache miss or two away. A vector of
	// its own because a ninth word in the row would push a row page off
	// its allocator size class (see pvec.go).
	needs    pvec[uint64]
	free     []int32
	matchAll postlist
	attrs    []attrRef // per-attribute indexes, sorted by name
	postings int       // live match-plane postings (see IndexStats.Postings)
	liveRows int
	// Live rows by hop kind, which bound a route-mode match (see
	// openRoutes): the rows on client hops, and the broker hops holding at
	// least one row (hopInfo.live counts each hop's).
	clientRows int
	brokerHops int

	// Mutation-plane state: never read on the match path.
	ident  identTable
	hops   []hopInfo // append-only hop intern table
	hopIDs map[wire.Hop]int32
	// owners interns owner identities; an owner goes back on ownerFree,
	// and out of ownerIDs (identity hash -> owner id), with its last row.
	owners    []owner
	ownerFree []int32
	ownerIDs  identTable

	// owner.posts / hopPosts are the per-owner and per-hop slot posting
	// lists behind the O(k) enumeration paths (ClientEntries,
	// RemoveClient, RemoveHop, hop-overlap checks) — see postings.go.
	// hopPosts is indexed by hop intern id, parallel to hops. The empty
	// owner identity is never posted: every aggregate entry shares it, so
	// its list would be the table over again (those callers keep the scan
	// path). identPostLive/hopPostLive aggregate the live posting counts
	// so IndexStats stays O(1) and leak tests can assert drain-to-zero.
	hopPosts      []mutPostings
	identPostLive int
	hopPostLive   int

	scratch scratch // the one match in progress (see eachMatching)
}

// row is one table entry in SoA form: 80 B plus its one posting, versus
// the pointer-heavy idxEntry + cached key strings of the old layout. The
// two posted-constraint indexes are int16 so the row stays 80 B (see
// pvec.go); constraints past index maxAccess are never posted, only
// verified.
type row struct {
	hash    uint64 // entryIdentHash of the entry
	hopID   int32  // intern id; -1 marks a freed row
	identID int32
	// access is the index in f of the posted constraint, -1 for a
	// match-all row; pair is the ordered half when the row is posted
	// under a pair (access is then its equality), else -1.
	access, pair int16
	gen          uint32
	f            filter.Filter
}

// maxAccess bounds the constraint indexes a row can record as posted.
const maxAccess = 1<<15 - 1

type hopInfo struct {
	hop  wire.Hop
	key  string // hop.String(), rendered once: hop-ordered outputs sort by it
	live int32  // live rows on the hop
}

// owner is one interned owner identity (client subscription) with the
// number of live rows it owns and their enumeration postings.
type owner struct {
	c     wire.ClientID
	s     wire.SubID
	rows  int32
	posts mutPostings
}

func ownerHash(c wire.ClientID, s wire.SubID) uint64 {
	return hashStr(hashU8(hashStr(fnvOffset64, string(c)), '/'), string(s))
}

// attrRef pairs an indexed attribute name with its posting lists; the
// matchIndex keeps these sorted by name for the merge-based match walk.
type attrRef struct {
	name string
	ai   *attrIndex
}

type attrIndex struct {
	// live counts the live constraints that mention this attribute, posted
	// or not: the directory entry, and the estimator state on it, exist
	// while it is positive.
	live int32
	// Estimator state, fed by every constraint on the attribute, posted or
	// not (see observe): the hull of the closed-range bounds per numeric
	// kind, and sketches of the distinct equality and prefix operands.
	spanI, spanF       span
	eqSeen, prefixSeen sketch
	eq                 valTable
	prefixes           prefixTable
	exists             postlist
	anyString          postlist // empty-prefix constraints: every string value matches
	scan               postlist // rows posted under a constraint no container can prove
	iv                 ivSet
	pairs              pairTable // rows posted under this attribute's = and an ordered constraint on another
}

func newMatchIndex() *matchIndex {
	return &matchIndex{
		hopIDs:  make(map[wire.Hop]int32),
		scratch: scratch{hopSeen: make(map[int32]struct{})},
	}
}

// rowLive reports whether a posting still references a live row: freeing a
// row bumps its generation, invalidating every posting created for it.
func (x *matchIndex) rowLive(sg slotGen) bool {
	return x.rows.at(sg.slot).gen == sg.gen
}

func (x *matchIndex) fillEntry(slot int32, e *Entry) {
	r := x.rows.at(slot)
	id := &x.owners[r.identID]
	e.Filter = r.f
	e.Hop = x.hops[r.hopID].hop
	e.Client = id.c
	e.SubID = id.s
}

func (x *matchIndex) entryAt(slot int32) Entry {
	var e Entry
	x.fillEntry(slot, &e)
	return e
}

func (x *matchIndex) forEachLiveSlot(fn func(slot int32, r *row)) {
	for i := 0; i < x.rows.len(); i++ {
		r := x.rows.at(int32(i))
		if r.hopID >= 0 {
			fn(int32(i), r)
		}
	}
}

// findAttr binary-searches the sorted attribute list for name, returning
// its index, or the insertion point and false.
func (x *matchIndex) findAttr(name string) (int, bool) {
	attrs := x.attrs
	lo, hi := 0, len(attrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if attrs[mid].name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(attrs) && attrs[lo].name == name
}

// attrFor, attrAt and attrDrop make the sorted attribute list an attrDir.
func (x *matchIndex) attrFor(name string) *attrIndex {
	i, ok := x.findAttr(name)
	if !ok {
		x.attrs = slices.Insert(x.attrs, i, attrRef{name: name, ai: &attrIndex{}})
	}
	return x.attrs[i].ai
}

func (x *matchIndex) attrAt(name string) *attrIndex {
	if i, ok := x.findAttr(name); ok {
		return x.attrs[i].ai
	}
	return nil
}

func (x *matchIndex) attrDrop(name string) {
	if i, ok := x.findAttr(name); ok {
		x.attrs = slices.Delete(x.attrs, i, i+1)
	}
}

func (x *matchIndex) internHop(h wire.Hop) int32 {
	if id, ok := x.hopIDs[h]; ok {
		return id
	}
	id := int32(len(x.hops))
	x.hops = append(x.hops, hopInfo{hop: h, key: h.String()})
	x.hopPosts = append(x.hopPosts, mutPostings{})
	x.hopIDs[h] = id
	return id
}

// lookupOwner returns the id of a live owner identity, or -1.
func (x *matchIndex) lookupOwner(c wire.ClientID, s wire.SubID) int32 {
	return x.ownerIDs.lookup(ownerHash(c, s), func(id int32) bool {
		return x.owners[id].c == c && x.owners[id].s == s
	})
}

func (x *matchIndex) ownerHashAt(id int32) uint64 {
	return ownerHash(x.owners[id].c, x.owners[id].s)
}

// acquireOwner counts one more row for the owner identity, interning it
// if it has none, and returns its id.
func (x *matchIndex) acquireOwner(c wire.ClientID, s wire.SubID) int32 {
	if id := x.lookupOwner(c, s); id >= 0 {
		x.owners[id].rows++
		return id
	}
	var id int32
	if n := len(x.ownerFree); n > 0 {
		id, x.ownerFree = x.ownerFree[n-1], x.ownerFree[:n-1]
	} else {
		id = int32(len(x.owners))
		x.owners = append(x.owners, owner{})
	}
	x.owners[id] = owner{c: c, s: s, rows: 1}
	x.ownerIDs.insert(ownerHash(c, s), id, x.ownerHashAt)
	return id
}

// releaseOwner uncounts one row of the owner; its last row frees it.
func (x *matchIndex) releaseOwner(id int32) {
	o := &x.owners[id]
	if o.rows--; o.rows > 0 {
		return
	}
	x.ownerIDs.remove(ownerHash(o.c, o.s), id)
	*o = owner{}
	x.ownerFree = append(x.ownerFree, id)
}

func (x *matchIndex) rowHash(slot int32) uint64 { return x.rows.at(slot).hash }

// lookupSlot finds the row holding exactly this entry, or -1.
func (x *matchIndex) lookupSlot(e Entry, hash uint64) int32 {
	return x.ident.lookup(hash, func(slot int32) bool {
		r := x.rows.at(slot)
		if r.hash != hash || r.hopID < 0 || x.hops[r.hopID].hop != e.Hop {
			return false
		}
		if id := &x.owners[r.identID]; id.c != e.Client || id.s != e.SubID {
			return false
		}
		return identFilterEqual(r.f, e.Filter)
	})
}

// ---------------------------------------------------------------------------
// Maintenance: insert / remove.
// ---------------------------------------------------------------------------

// insertEntry adds the entry, reporting whether it was not already present.
func (x *matchIndex) insertEntry(e Entry) bool {
	h := entryIdentHash(e)
	if x.lookupSlot(e, h) >= 0 {
		return false
	}
	hopID := x.internHop(e.Hop)
	identID := x.acquireOwner(e.Client, e.SubID)
	var slot int32
	if n := len(x.free); n > 0 {
		slot = x.free[n-1]
		x.free = x.free[:n-1]
	} else {
		slot = x.rows.grow()
		x.needs.grow()
	}
	r := x.rows.at(slot)
	gen := r.gen // survives free/reuse; postings carry it
	*r = row{hash: h, hopID: hopID, identID: identID, access: -1, pair: -1, gen: gen, f: e.Filter}
	x.liveRows++
	sg := slotGen{slot: slot, gen: gen}
	x.hopPosts[hopID].add(sg)
	x.hopPostLive++
	x.countHopRow(hopID, 1)
	if e.Client != "" {
		x.owners[identID].posts.add(sg)
		x.identPostLive++
	}
	if e.Filter.Len() == 0 {
		x.matchAll.add(sg)
	} else {
		ch := chooseAccess(x, e.Filter, true)
		r.access, r.pair = int16(ch.a), int16(ch.b)
		x.postings += ch.post(x, sg, e.Filter)
		*x.needs.at(slot) = ch.need
	}
	x.ident.insert(h, slot, x.rowHash)
	return true
}

// attrDir is a directory of per-attribute indexes, the shape postRow and
// unpostRow maintain. The match index keeps its attributes in a sorted
// list (the match walk merges it with a notification's attributes); the
// cover index's witness plane keeps a map.
type attrDir interface {
	postOwner
	attrFor(name string) *attrIndex // the index, created on first use
	attrAt(name string) *attrIndex  // the index, or nil
	attrDrop(name string)           // its last constraint is gone
}

// accessChoice is where a row is posted: under constraint a alone or, when
// b >= 0, under the pair of equality a and ordered constraint b on another
// attribute, in a's attribute index (ai). need holds the equality bits of
// the constraints the posting does not prove.
type accessChoice struct {
	a, b int
	ai   *attrIndex
	need uint64
}

// chooseAccess registers every constraint of f with its attribute's
// directory entry in d and chooses the posting. The single constraint is
// the one estimated most selective, ties going to the lower operator code,
// which puts the hash-probed classes (=, prefix, in) before intervals.
//
// With pairs, a row with an equality and an ordered constraint the interval
// lists can hold, on another attribute, is posted under the pair instead:
// its candidates are the notifications satisfying both, a subset of either
// half's. Each half is the most selective of its kind (the first on ties).
// Only a never-satisfiable constraint beats a pair, since it posts nothing.
func chooseAccess(d attrDir, f filter.Filter, pairs bool) accessChoice {
	ch := accessChoice{a: -1, b: -1}
	var (
		best, eqSel float64
		bestOp      filter.Op
		eq          = -1
		eqAI        *attrIndex
	)
	for ci := 0; ci < f.Len(); ci++ {
		c := f.At(ci)
		ai := d.attrFor(c.Attr)
		ai.live++
		ai.observe(&c)
		if f.Len() == 1 { // nothing to choose, no residual to summarise
			ch.a, ch.ai = 0, ai
			return ch
		}
		if ci > maxAccess {
			continue
		}
		sel := ai.selectivity(&c)
		if ch.a < 0 || sel < best || (sel == best && c.Op < bestOp) {
			ch.a, ch.ai, best, bestOp = ci, ai, sel, c.Op
		}
		if pairs && c.Op == filter.OpEQ && !isNaNValue(c.Value) && (eq < 0 || sel < eqSel) {
			eq, eqSel, eqAI = ci, sel, ai
		}
	}
	if eq >= 0 && best != selNever {
		attr, ordSel := f.At(eq).Attr, 0.0
		for ci := 0; ci < f.Len() && ci <= maxAccess; ci++ {
			c := f.At(ci)
			if c.Attr == attr || !isOrdered(c.Op) {
				continue
			}
			if _, ok := ordShape(&c); !ok {
				continue
			}
			if sel := d.attrAt(c.Attr).selectivity(&c); ch.b < 0 || sel < ordSel {
				ch.b, ordSel = ci, sel
			}
		}
		if ch.b >= 0 {
			ch.a, ch.ai = eq, eqAI
		}
	}
	for ci := 0; ci < f.Len(); ci++ {
		if c := f.At(ci); ci != ch.a && c.Op == filter.OpEQ && !isNaNValue(c.Value) {
			ch.need |= eqBit(c.Attr, c.Value)
		}
	}
	return ch
}

// post makes the chosen posting of row sg, returning the number of
// postings made. ch.ai is still its attribute's index: directory shifts
// move refs, not indexes.
func (ch *accessChoice) post(x postOwner, sg slotGen, f filter.Filter) int {
	c := f.At(ch.a)
	if ch.b < 0 {
		return ch.ai.insert(x, sg, &c)
	}
	o := f.At(ch.b)
	q, _ := ordShape(&o)
	ch.ai.pairs.add(x, c.Value, o.Attr, q, sg)
	return 1
}

// postRow posts sg under the single constraint chooseAccess picks,
// returning its index and the number of postings made. It is the cover
// index's witness plane: a coverer probe works by constraint containment,
// where a pair proves nothing a single key does not.
func postRow(d attrDir, sg slotGen, f filter.Filter) (int32, int) {
	ch := chooseAccess(d, f, false)
	return int32(ch.a), ch.post(d, sg, f)
}

// unpostRow undoes a posting of f under access (and, for a pair, the
// ordered constraint pair; -1 otherwise) for a row whose generation has
// already moved on, returning the number of postings it accounts as
// removed. An attribute's directory entry goes with its last constraint.
func unpostRow(d attrDir, f filter.Filter, access, pair int) int {
	n := 0
	for ci := 0; ci < f.Len(); ci++ {
		c := f.At(ci)
		ai := d.attrAt(c.Attr)
		if ai == nil {
			continue
		}
		ai.live--
		switch {
		case ci != access:
		case pair < 0:
			n = ai.remove(d, &c)
		default:
			o := f.At(pair)
			q, _ := ordShape(&o)
			ai.pairs.remove(d, c.Value, o.Attr, q.kind)
			n = 1
		}
		if ai.live == 0 {
			d.attrDrop(c.Attr)
		}
	}
	return n
}

// isOrdered reports whether op is one of the interval operators.
func isOrdered(op filter.Op) bool {
	switch op {
	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE, filter.OpRange:
		return true
	}
	return false
}

// eqBit maps "attribute attr equals v" to one of 64 bits. A row ORs the
// bits of its equality constraints into row.need, a match ORs the bits of
// the notification's attributes (scratch.carried); Equal values share a
// payload, hence a bit, so a missing bit proves a failing constraint.
func eqBit(attr string, v message.Value) uint64 {
	return 1 << (hashStr(hashOperand(v), attr) & 63)
}

// removeEntry deletes the exact entry, reporting whether it was present.
func (x *matchIndex) removeEntry(e Entry) bool {
	slot := x.lookupSlot(e, entryIdentHash(e))
	if slot < 0 {
		return false
	}
	x.removeSlot(slot)
	return true
}

// removeSlot frees a live row: the generation bump first (so compactions
// running during posting removal already see the row as dead), then the
// per-constraint accounting, then the slot goes back on the free list.
func (x *matchIndex) removeSlot(slot int32) {
	r := x.rows.at(slot)
	// Captured before the scrub below.
	f, hopID, identID := r.f, r.hopID, r.identID
	access, pair := int(r.access), int(r.pair)
	x.ident.remove(r.hash, slot)
	r.gen++
	r.hopID = -1
	r.identID = -1
	r.access, r.pair = -1, -1
	r.hash = 0
	r.f = filter.Filter{} // release the filter's backing storage
	x.liveRows--
	// The generation bump above already invalidated the enumeration
	// postings; this is accounting plus amortized compaction.
	x.hopPosts[hopID].removeLazy(x)
	x.hopPostLive--
	x.countHopRow(hopID, -1)
	if x.owners[identID].c != "" {
		x.owners[identID].posts.removeLazy(x)
		x.identPostLive--
	}
	x.releaseOwner(identID)
	if f.Len() == 0 {
		x.matchAll.removeLazy(x)
	} else {
		x.postings -= unpostRow(x, f, access, pair)
	}
	x.free = append(x.free, slot)
}

// countHopRow adds d (±1) to hop hid's live rows and to the per-kind
// totals.
func (x *matchIndex) countHopRow(hid, d int32) {
	hi := &x.hops[hid]
	hi.live += d
	switch {
	case hi.hop.IsClient():
		x.clientRows += int(d)
	case d > 0 && hi.live == 1:
		x.brokerHops++
	case d < 0 && hi.live == 0:
		x.brokerHops--
	}
}

// isNaNValue reports whether v is a float NaN. NaN operands need special
// routing: NaN is never Equal to anything (so an eq posting would be dead
// weight), and Value.Compare treats NaN as equal to everything, which the
// native-ordered interval runs cannot represent.
func isNaNValue(v message.Value) bool {
	return v.Kind() == message.KindFloat && v.FloatVal() != v.FloatVal()
}

// orderedBoundNaN reports whether an ordered constraint carries a NaN
// bound; such constraints are evaluated on the scan list instead of the
// interval runs so they keep Constraint.Matches' exact semantics.
func orderedBoundNaN(c *filter.Constraint) bool {
	return isNaNValue(c.Value) || isNaNValue(c.Hi) // Hi is unset outside a range
}

// eachIndexableInMember visits the members of an in-constraint that get eq
// postings: NaN members (which can never match) and duplicates (which would
// make the row a candidate twice) are skipped. Insert and remove share
// this walk so their posting sets cannot diverge.
func eachIndexableInMember(c *filter.Constraint, fn func(v message.Value)) {
	for i, v := range c.Values {
		if isNaNValue(v) {
			continue
		}
		dup := false
		for j := 0; j < i; j++ {
			if c.Values[j].Equal(v) { // match equivalence: the eq buckets' own
				dup = true
				break
			}
		}
		if !dup {
			fn(v)
		}
	}
}

// orderedKind returns the interval-run kind an ordered constraint indexes
// under, or KindInvalid when it must fall back to the scan list (non-
// orderable operand kinds, or a range whose bounds disagree on kind — the
// scan list reproduces Constraint.Matches exactly for those).
func orderedKind(c *filter.Constraint) message.Kind {
	k := c.Value.Kind()
	if c.Op == filter.OpRange && k != c.Hi.Kind() {
		return message.KindInvalid
	}
	switch k {
	case message.KindInt, message.KindFloat, message.KindString:
		return k
	}
	return message.KindInvalid
}

// ordFlagsBounds extracts the interval form of an ordered constraint.
func ordFlags(c *filter.Constraint) uint8 {
	switch c.Op {
	case filter.OpLT:
		return ivHasHi
	case filter.OpLE:
		return ivHasHi | ivHiInc
	case filter.OpGT:
		return ivHasLo
	case filter.OpGE:
		return ivHasLo | ivLoInc
	default: // OpRange
		return ivHasLo | ivLoInc | ivHasHi | ivHiInc
	}
}

func ordBounds(c *filter.Constraint) (lo, hi message.Value) {
	switch c.Op {
	case filter.OpLT, filter.OpLE:
		return message.Value{}, c.Value
	default: // OpGT, OpGE, and OpRange, whose Hi is the upper bound
		return c.Value, c.Hi
	}
}

// span is the hull of the closed-range bounds seen on one attribute for one
// numeric kind, from posted and unposted constraints alike. It only grows;
// it goes when the attribute's directory entry does.
type span struct {
	lo, hi float64
	seen   bool
}

func (sp *span) widen(lo, hi float64) {
	if !sp.seen {
		sp.lo, sp.hi, sp.seen = lo, hi, true
		return
	}
	sp.lo, sp.hi = min(sp.lo, lo), max(sp.hi, hi)
}

// fraction estimates the share of the span a range [lo, hi] admits; 1 when
// the span is the range itself or a single point.
func (sp *span) fraction(lo, hi float64) float64 {
	if w := sp.hi - sp.lo; w > 0 {
		return min(1, (hi-lo)/w)
	}
	return 1
}

// rangeSpan returns the span a closed numeric range belongs to and its
// bounds as floats, or false for anything else (NaN bounds included): only
// those feed and use the span estimate.
func (ai *attrIndex) rangeSpan(c *filter.Constraint) (sp *span, lo, hi float64, ok bool) {
	if c.Op != filter.OpRange || orderedBoundNaN(c) {
		return nil, 0, 0, false
	}
	switch orderedKind(c) {
	case message.KindInt:
		return &ai.spanI, float64(c.Value.IntVal()), float64(c.Hi.IntVal()), true
	case message.KindFloat:
		return &ai.spanF, c.Value.FloatVal(), c.Hi.FloatVal(), true
	}
	return nil, 0, 0, false
}

// sketch estimates how many distinct operands an attribute has seen, by
// linear counting over 256 bits: each operand's hash sets one bit, and the
// share of bits still clear gives the count. Like span it only grows and
// goes with the directory entry. It reads true up to a few hundred
// distinct operands and saturates near 1 400 — beyond that the posting
// table's own bucket count takes over (see selectivity).
type sketch struct {
	bits     [4]uint64
	set      int     // bits set
	distinct float64 // the estimate, recomputed when a bit is newly set
}

func (k *sketch) add(h uint64) {
	w, m := &k.bits[h>>6&3], uint64(1)<<(h&63)
	if *w&m == 0 {
		*w |= m
		k.set++
		k.distinct = -256 * math.Log(float64(max(256-k.set, 1))/256)
	}
}

// observe feeds a constraint on this attribute, posted or not, to the
// estimator. Unposted constraints must count: an estimate drawn only from
// what was posted feeds on its own choices — an attribute that lost the
// first few of them never learns how selective it is and never wins one,
// and an unlucky first few rows decide every row after them.
func (ai *attrIndex) observe(c *filter.Constraint) {
	switch c.Op {
	case filter.OpEQ:
		if !isNaNValue(c.Value) {
			ai.eqSeen.add(hashOperand(c.Value))
		}
	case filter.OpIn:
		eachIndexableInMember(c, func(v message.Value) { ai.eqSeen.add(hashOperand(v)) })
	case filter.OpPrefix:
		ai.prefixSeen.add(hashOperand(c.Value))
	case filter.OpRange:
		if sp, lo, hi, ok := ai.rangeSpan(c); ok {
			sp.widen(lo, hi)
		}
	}
}

func hashOperand(v message.Value) uint64 {
	bits, str := eqPayload(v)
	return hashValKey(v.Kind(), bits, str)
}

// Selectivity ranks outside (0, 1], for the constraints the index holds no
// estimate for. selNever marks a constraint no value satisfies: it is the
// best access predicate there is, since it posts nothing and the row is
// never a candidate.
const (
	selNever    = -1.0
	selHalfOpen = 2.0 // one-sided bounds and string ranges: interval-probed, but wide
	selScan     = 3.0 // evaluated per posting
	selAlways   = 4.0 // satisfied by presence (exists, empty prefix)
)

// selectivity estimates the share of notifications carrying this attribute
// that satisfy c. An equality or prefix is taken to be one of the distinct
// operands the attribute has seen — the sketch's count, or the posting
// table's bucket count where that is larger (it is exact for what is
// posted, and does not saturate); a range is its width over the
// attribute's observed span. Lower is more selective. It is an estimate of
// where the subscriptions are, not of where the notifications will be.
func (ai *attrIndex) selectivity(c *filter.Constraint) float64 {
	switch c.Op {
	case filter.OpEQ:
		if isNaNValue(c.Value) {
			return selNever
		}
		return 1 / ai.eqDistinct()
	case filter.OpIn:
		k := 0
		eachIndexableInMember(c, func(message.Value) { k++ })
		if k == 0 {
			return selNever
		}
		return min(1, float64(k)/ai.eqDistinct())
	case filter.OpPrefix:
		if c.Value.Str() == "" {
			return selAlways
		}
		return 1 / max(ai.prefixSeen.distinct, float64(ai.prefixes.tab.used))
	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE, filter.OpRange:
		if sp, lo, hi, ok := ai.rangeSpan(c); ok {
			return sp.fraction(lo, hi)
		}
		if orderedBoundNaN(c) || orderedKind(c) == message.KindInvalid {
			return selScan
		}
		return selHalfOpen
	case filter.OpExists:
		return selAlways
	default:
		return selScan
	}
}

// eqDistinct estimates the distinct equality operands: the sketch's count,
// or the posting tables' bucket counts where that is larger.
func (ai *attrIndex) eqDistinct() float64 {
	return max(ai.eqSeen.distinct, float64(ai.eq.used+ai.pairs.used))
}

// insert posts the row under c, returning the number of postings made: one,
// except none for a constraint nothing satisfies and one per distinct
// member of an in-set.
func (ai *attrIndex) insert(x postOwner, sg slotGen, c *filter.Constraint) int {
	switch c.Op {
	case filter.OpEQ:
		if isNaNValue(c.Value) {
			return 0 // never matches: unposted, the row is never a candidate
		}
		bits, str := eqPayload(c.Value)
		ai.eq.add(x, c.Value.Kind(), bits, str, sg)
	case filter.OpIn:
		// One posting per distinct set member; a notification value equals
		// at most one member, so the row is a candidate at most once.
		k := 0
		eachIndexableInMember(c, func(v message.Value) {
			bits, str := eqPayload(v)
			ai.eq.add(x, v.Kind(), bits, str, sg)
			k++
		})
		return k
	case filter.OpExists:
		ai.exists.add(sg)
	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE, filter.OpRange:
		if q, ok := ordShape(c); ok {
			ai.iv.insert(x, q, sg)
		} else {
			ai.scan.add(sg)
		}
	case filter.OpPrefix:
		p := c.Value.Str()
		if p == "" {
			ai.anyString.add(sg)
		} else {
			ai.prefixes.add(x, p, sg)
		}
	default:
		// !=, suffix, contains, and malformed operators: evaluated directly.
		ai.scan.add(sg)
	}
	return 1
}

// remove mirrors insert's routing so every container's live/dead
// accounting matches what insert registered, and returns the same count.
// The row generation was already bumped, so this is bookkeeping plus
// amortized compaction.
func (ai *attrIndex) remove(x postOwner, c *filter.Constraint) int {
	switch c.Op {
	case filter.OpEQ:
		if isNaNValue(c.Value) {
			return 0 // mirrored skip: insert registered nothing
		}
		ai.eq.removeLazy(x)
	case filter.OpIn:
		k := 0
		eachIndexableInMember(c, func(message.Value) {
			ai.eq.removeLazy(x)
			k++
		})
		return k
	case filter.OpExists:
		ai.exists.removeLazy(x)
	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE, filter.OpRange:
		if q, ok := ordShape(c); ok {
			ai.iv.removeLazy(x, q.kind)
		} else {
			ai.scan.removeLazy(x)
		}
	case filter.OpPrefix:
		if p := c.Value.Str(); p == "" {
			ai.anyString.removeLazy(x)
		} else {
			ai.prefixes.remove(x, p)
		}
	default:
		ai.scan.removeLazy(x)
	}
	return 1
}

// ---------------------------------------------------------------------------
// Flat posting lists (exists, any-string, match-all, scan).
// ---------------------------------------------------------------------------

// postlist is a flat slotGen list with lazy deletion: removals only count,
// generation checks reject stale postings at probe time, and compaction
// rewrites the list once dead postings dominate. Compaction lowers dead by
// what it drops, which may be more than has been counted so far (see
// valTable.rehash), so the live count stays exact.
type postlist struct {
	s    []slotGen
	dead int32
}

func (p *postlist) add(sg slotGen) {
	p.s = append(p.s, sg)
}

func (p *postlist) liveCount() int {
	return len(p.s) - int(p.dead)
}

func (p *postlist) removeLazy(x postOwner) {
	p.dead++
	if int(p.dead) > p.liveCount() && p.dead > 8 {
		kept := p.s[:0]
		for _, sg := range p.s {
			if x.rowLive(sg) {
				kept = append(kept, sg)
			}
		}
		p.dead -= int32(len(p.s) - len(kept))
		p.s = kept
	}
}

func (p *postlist) probe(s candSink) {
	for _, sg := range p.s {
		s.candidate(sg)
	}
}

// ---------------------------------------------------------------------------
// Matching.
// ---------------------------------------------------------------------------

// scratch holds the per-match state: the notification being matched, the
// matched row slots and the hop-deduplication buffers. Each index owns one,
// reused by every match so a match allocates nothing; a match must
// therefore not start while another is in progress on the same index (see
// eachMatching).
type scratch struct {
	x       *matchIndex // the index being matched
	n       message.Notification
	from    wire.Hop // rows on this hop are skipped unverified
	carry   uint64   // eqBit of every attribute of n, once carryOK
	carryOK bool
	matched []int32 // row slots
	// Route-once matching (see eachMatching): a broker hop whose stamp in
	// routed equals routeMark has a verified match, and its remaining
	// candidates are skipped. Indexed by hop intern id.
	route     bool
	routed    []uint32
	routeMark uint32
	// open counts the broker hops a route-mode match has still to find a
	// verified row for; -1 when it cannot stop early (see openRoutes).
	open int
	// lastFrom is the intern id openRoutes last found an arrival hop
	// under: a publish stream comes from one hop, and ids are never
	// reassigned.
	lastFrom int32
	hopSeen  map[int32]struct{}
	hopOut   []hopRef
	entry    Entry // reused across visit calls; &entry escapes into the callback
}

type hopRef struct {
	key string
	hop wire.Hop
}

func (x *matchIndex) getScratch() *scratch {
	s := &x.scratch
	s.matched = s.matched[:0]
	return s
}

// putScratch releases the scratch: it must not keep the notification or
// the hop alive.
func (x *matchIndex) putScratch(s *scratch) {
	s.n, s.from, s.route = message.Notification{}, wire.Hop{}, false
}

// skip reports whether a row on hop hid needs no verification: it points
// back at the origin, or it is on a broker hop a verified match already
// routes the notification to.
func (s *scratch) skip(hid int32) bool {
	h := &s.x.hops[hid].hop
	if *h == s.from {
		return true
	}
	return s.route && h.Client == "" && s.routed[hid] == s.routeMark
}

// accept records a verified match. With open > 0 every other live row is
// on a broker hop, and skip lets each through once, so this is a new one.
func (s *scratch) accept(slot, hid int32) {
	s.matched = append(s.matched, slot)
	if s.route {
		s.routed[hid] = s.routeMark // client hops are never read back
		if s.open > 0 {
			s.open--
		}
	}
}

// candidate takes a probe hit: a live row whose posted constraint (or
// pair) the posting's container has just proved for s.n. The row matches
// exactly when the rest of its filter accepts the notification too. A row
// has one posting and a value hits at most one entry of it, so no row is a
// candidate twice in one match and matched needs no deduplication.
func (s *scratch) candidate(sg slotGen) {
	x := s.x
	r := x.rows.at(sg.slot)
	if r.gen != sg.gen {
		return // posting of a removed row; reclaimed by compaction later
	}
	if s.skip(r.hopID) {
		return
	}
	if need := *x.needs.at(sg.slot); need != 0 && need&^s.carried() != 0 {
		return // an equality of the row names a value the notification does not carry
	}
	if r.f.MatchesExcept(s.n, int(r.access), int(r.pair)) {
		s.accept(sg.slot, r.hopID)
	}
}

// carried returns the equality bits of the notification being matched,
// computed when the first candidate with equalities asks.
func (s *scratch) carried() uint64 {
	if !s.carryOK {
		s.carry, s.carryOK = 0, true
		for i := 0; i < s.n.Len(); i++ {
			a := s.n.At(i)
			s.carry |= eqBit(a.Name, a.Value)
		}
	}
	return s.carry
}

// scanned takes a scan-list posting: nothing has been proved about the row,
// so its whole filter is evaluated.
func (s *scratch) scanned(sg slotGen) {
	if r := s.x.rows.at(sg.slot); r.gen == sg.gen && !s.skip(r.hopID) && r.f.Matches(s.n) {
		s.accept(sg.slot, r.hopID)
	}
}

// probe probes one attribute of the index with the notification's value v:
// its single-key postings, then its pair postings.
func (s *scratch) probe(ai *attrIndex, v message.Value) {
	ai.probe(s.x, v, s)
	if ai.pairs.live > 0 && !isNaNValue(v) {
		ai.pairs.probe(s.x, v, s.n, s)
	}
}

// openRoutes returns how many broker hops other than from hold a live row,
// the verified matches after which a route-mode match can stop probing; or
// -1 when a client hop other than from holds one, since every client-hop
// match is visited.
func (s *scratch) openRoutes(from wire.Hop) int {
	x := s.x
	if x.clientRows > 0 && !from.IsClient() {
		return -1
	}
	open, clients := x.brokerHops, x.clientRows
	if hid, ok := s.hopID(from); ok && x.hops[hid].live > 0 {
		if from.IsClient() {
			clients -= int(x.hops[hid].live)
		} else {
			open--
		}
	}
	if clients > 0 {
		return -1
	}
	return open
}

// hopID returns h's intern id, if it has one.
func (s *scratch) hopID(h wire.Hop) (int32, bool) {
	x := s.x
	if int(s.lastFrom) < len(x.hops) && x.hops[s.lastFrom].hop == h {
		return s.lastFrom, true
	}
	hid, ok := x.hopIDs[h]
	if ok {
		s.lastFrom = hid
	}
	return hid, ok
}

// match appends to s.matched the slot of every entry not on hop from whose
// filter accepts n, and returns it; with route, only the first verified
// entry of each broker hop (see eachMatching), and once every hop other
// than from that holds a live row is a broker hop with a verified entry,
// no further attribute is probed. The result aliases scratch state and is
// only valid until the scratch is released.
//
// Both the notification's attributes and the index's attribute list are
// sorted by name, so their intersection is found by a sorted merge: one
// linear walk of string comparisons, no hashing, no closure. When one side
// dwarfs the other, binary-searching each element of the small side into
// the large one is cheaper than walking the large side, so the walk
// switches shape on a size ratio.
func (x *matchIndex) match(n message.Notification, from wire.Hop, route bool, s *scratch) []int32 {
	s.x, s.n, s.from, s.route, s.carryOK = x, n, from, route, false
	s.open = -1
	if route {
		if s.open = s.openRoutes(from); s.open == 0 {
			return s.matched // no row off the arrival hop
		}
		if len(s.routed) < len(x.hops) {
			s.routed = make([]uint32, len(x.hops)+len(x.hops)/4)
			s.routeMark = 0
		}
		if s.routeMark++; s.routeMark == 0 { // wrapped: forget every old stamp
			clear(s.routed)
			s.routeMark = 1
		}
	}
	for _, sg := range x.matchAll.s {
		if r := x.rows.at(sg.slot); r.gen == sg.gen && !s.skip(r.hopID) {
			s.accept(sg.slot, r.hopID)
		}
	}
	attrs := x.attrs
	la, ln := len(attrs), n.Len()
	switch {
	case la == 0 || ln == 0:
	case la <= 8*ln && ln <= 8*la:
		i, j := 0, 0
		for i < la && j < ln && s.open != 0 {
			a := n.At(j)
			switch {
			case attrs[i].name < a.Name:
				i++
			case attrs[i].name > a.Name:
				j++
			default:
				s.probe(attrs[i].ai, a.Value)
				i++
				j++
			}
		}
	case ln < la:
		for j := 0; j < ln && s.open != 0; j++ {
			a := n.At(j)
			if i, ok := x.findAttr(a.Name); ok {
				s.probe(attrs[i].ai, a.Value)
			}
		}
	default:
		for i := 0; i < la && s.open != 0; i++ {
			if v, ok := n.Get(attrs[i].name); ok {
				s.probe(attrs[i].ai, v)
			}
		}
	}
	return s.matched
}

// probe reports the rows posted under a constraint v satisfies as
// candidates, and the scan list's rows as scanned. x is as for
// ivlist.probe.
func (ai *attrIndex) probe(x postOwner, v message.Value, s candSink) {
	ai.exists.probe(s)
	if ai.eq.live > 0 && !isNaNValue(v) {
		bits, str := eqPayload(v)
		ai.eq.probe(v.Kind(), bits, str, s)
	}
	ai.iv.probe(x, v, s)
	if v.Kind() == message.KindString {
		str := v.Str()
		ai.anyString.probe(s)
		if str != "" {
			ai.prefixes.probe(str, s)
		}
	}
	for _, sg := range ai.scan.s {
		s.scanned(sg)
	}
}

// ---------------------------------------------------------------------------
// Canonical ordering of matched rows.
// ---------------------------------------------------------------------------

// cmpSlots orders row slots by (identity hash, content) — the canonical
// deterministic order shared with cmpEntryCanonical on plain entries.
func (x *matchIndex) cmpSlots(a, b int32) int {
	ra, rb := x.rows.at(a), x.rows.at(b)
	if ra.hash != rb.hash {
		if ra.hash < rb.hash {
			return -1
		}
		return 1
	}
	return cmpEntryContent(x.entryAt(a), x.entryAt(b))
}

// sortSlots sorts slots in canonical order without allocating (a closure
// handed to slices.SortFunc would escape on the publish hot path).
func (x *matchIndex) sortSlots(sl []int32) {
	if len(sl) < 16 {
		for i := 1; i < len(sl); i++ {
			for j := i; j > 0 && x.cmpSlots(sl[j], sl[j-1]) < 0; j-- {
				sl[j], sl[j-1] = sl[j-1], sl[j]
			}
		}
		return
	}
	mid := sl[len(sl)/2]
	lt, i, gt := 0, 0, len(sl)
	for i < gt {
		c := x.cmpSlots(sl[i], mid)
		switch {
		case c < 0:
			sl[lt], sl[i] = sl[i], sl[lt]
			lt++
			i++
		case c > 0:
			gt--
			sl[gt], sl[i] = sl[i], sl[gt]
		default:
			i++
		}
	}
	x.sortSlots(sl[:lt])
	x.sortSlots(sl[gt:])
}

// eachMatching is the shared visit-in-canonical-order matcher behind
// Table.EachMatchingEntry and Table.EachRoute. Rows on from are skipped
// before verification. With route, a broker hop is visited once: after its
// first verified match its remaining candidates are not verified — a
// router sends one copy per neighbor whichever row asked for it — while
// every client-hop match is still visited. visit also gets the row's owner
// id (see Table.EachRoute). The Entry pointer handed to visit is reused
// across calls and only valid during each call. visit runs while the
// index's one scratch holds this match, so it must not call back into the
// table.
func (x *matchIndex) eachMatching(n message.Notification, from wire.Hop, route bool, visit func(e *Entry, owner int)) {
	s := x.getScratch()
	defer x.putScratch(s)
	kept := x.match(n, from, route, s)
	if len(kept) == 0 {
		return
	}
	x.sortSlots(kept)
	// The Entry lives in the scratch: a local would escape through visit
	// (the compiler cannot see that callbacks don't retain it) and cost one
	// heap allocation per matched publish.
	e := &s.entry
	for _, slot := range kept {
		x.fillEntry(slot, e)
		visit(e, int(x.rows.at(slot).identID))
	}
}

// IndexStats describes the predicate index backing a Table.
type IndexStats struct {
	Entries int // table rows
	Attrs   int // distinct attributes any live row constrains
	// Postings counts match-plane postings: every row with constraints is
	// posted under one of them, which makes one posting — one per distinct
	// member when that constraint is an in-set, none when nothing can
	// satisfy it. Match-all rows are counted by MatchAll instead.
	Postings int
	MatchAll int // rows whose filter matches every notification
	// IdentPostings / HopPostings count the live slot postings of the
	// mutation-plane enumeration lists that serve the O(k) relocation
	// paths (ClientEntries / RemoveClient / RemoveHop — see postings.go).
	IdentPostings int
	HopPostings   int
}
