package routing

import (
	"slices"
	"sort"

	"repro/internal/filter"
	"repro/internal/message"
)

// Sublinear interval store for ordered constraints (<, <=, >, >=, range).
//
// The old index kept one flat slice of intervals sorted by lower bound and
// probed it linearly up to the first lower bound above the value — O(k +
// entries with lo ≤ v), which degenerates to a full scan for workloads
// whose lower bounds sit left of the probe value. At 10⁶ intervals that is
// the match path's dominant cost.
//
// ivlist replaces it with the logarithmic method (Bentley–Saxe) over
// static sorted runs:
//
//   - inserts buffer in a small pending slice (bounded by ivPendCap); a
//     match-plane probe promotes a non-empty buffer before it reads the
//     list, so a list that has stopped changing is probed through its runs
//     alone, while the cover index's probes scan the buffer as it is;
//   - a full buffer is sorted into a new immutable run, which greedily
//     merges with any existing run of comparable size, keeping O(log n)
//     runs with geometrically increasing sizes at amortized O(log n)
//     insert cost;
//   - each run stores its intervals as flat parallel slices sorted by
//     lower bound plus a max-upper-bound segment tree, so one probe costs
//     O(log n + matches): binary search bounds the prefix with lo ≤ v, and
//     the tree descent skips every subtree whose maximum upper bound is
//     below v.
//
// Deletes are logical: the row-generation check at probe time invalidates
// postings of removed rows, and run merges/compactions drop them
// physically. Runs are immutable once built; only the run directory and
// the pending buffer change in place.
type ivOrd interface {
	~int64 | ~float64 | ~string
}

const (
	ivHasLo uint8 = 1 << iota
	ivLoInc
	ivHasHi
	ivHiInc
)

// ivPendCap bounds the pending buffer and sets the base run size for the
// logarithmic method while inserts are not interleaved with match probes.
const ivPendCap = 128

type ivEntry[T ivOrd] struct {
	lo, hi T
	flags  uint8
	sg     slotGen
}

func (e *ivEntry[T]) match(v T) bool {
	if e.flags&ivHasLo != 0 && (e.lo > v || (e.lo == v && e.flags&ivLoInc == 0)) {
		return false
	}
	if e.flags&ivHasHi != 0 && (e.hi < v || (e.hi == v && e.flags&ivHiInc == 0)) {
		return false
	}
	return true
}

// matchInclusive is the probe rule for float NaN values, which
// Value.Compare orders equal to everything: a bound admits NaN exactly
// when it is inclusive (or absent). Kept identical to the linear
// reference semantics of Constraint.Matches.
func (e *ivEntry[T]) matchInclusive() bool {
	if e.flags&ivHasLo != 0 && e.flags&ivLoInc == 0 {
		return false
	}
	if e.flags&ivHasHi != 0 && e.flags&ivHiInc == 0 {
		return false
	}
	return true
}

// ivRun is one immutable sorted run: parallel slices ordered by
// (has-lower-bound, lower bound), with a 1-indexed max segment tree over
// the upper bounds ("no upper bound" dominates every value). The
// no-upper-bound flag lives in a bitset beside the plain max array: a
// {max, inf} node struct would pad to double the tree's footprint for
// the numeric kinds.
type ivRun[T ivOrd] struct {
	lo, hi []T
	flags  []uint8
	sg     []slotGen
	tree   []T      // max upper bound per node
	inf    []uint64 // bitset: subtree holds an interval without an upper bound
	treeW  int
}

func (r *ivRun[T]) infBit(i int) bool { return r.inf[i>>6]&(1<<(i&63)) != 0 }

type ivlist[T ivOrd] struct {
	runs []*ivRun[T] // kept sorted by size, largest first
	pend []ivEntry[T]
	live int
	dead int // logically deleted entries still present in runs/pend
}

func ivEntryLess[T ivOrd](a, b ivEntry[T]) bool {
	al, bl := a.flags&ivHasLo != 0, b.flags&ivHasLo != 0
	if al != bl {
		return !al // unbounded-below sorts first
	}
	return al && a.lo < b.lo
}

// buildRun builds a run of ents, which must be sorted by ivEntryLess. The
// bounds and the tree share one allocation: a match probe promotes small
// buffers too, so a run is often only a few entries long.
func buildRun[T ivOrd](ents []ivEntry[T]) *ivRun[T] {
	n := len(ents)
	w := 1
	for w < n {
		w *= 2
	}
	vals := make([]T, 2*n+2*w)
	r := &ivRun[T]{
		lo:    vals[:n:n],
		hi:    vals[n : 2*n : 2*n],
		tree:  vals[2*n:],
		flags: make([]uint8, n),
		sg:    make([]slotGen, n),
		inf:   make([]uint64, (2*w+63)/64),
		treeW: w,
	}
	for i, e := range ents {
		r.lo[i], r.hi[i], r.flags[i], r.sg[i] = e.lo, e.hi, e.flags, e.sg
	}
	for i := 0; i < n; i++ {
		r.tree[w+i] = r.hi[i]
		if r.flags[i]&ivHasHi == 0 {
			r.inf[(w+i)>>6] |= 1 << ((w + i) & 63)
		}
	}
	for i := w - 1; i >= 1; i-- {
		if r.infBit(2*i) || r.infBit(2*i+1) {
			r.inf[i>>6] |= 1 << (i & 63)
		}
		if r.tree[2*i+1] > r.tree[2*i] {
			r.tree[i] = r.tree[2*i+1]
		} else {
			r.tree[i] = r.tree[2*i]
		}
	}
	return r
}

func (r *ivRun[T]) entry(i int) ivEntry[T] {
	return ivEntry[T]{lo: r.lo[i], hi: r.hi[i], flags: r.flags[i], sg: r.sg[i]}
}

func (r *ivRun[T]) probe(v T, s candSink) {
	// Prefix of candidates: every interval whose lower bound admits v sits
	// before the first entry with lo > v (unbounded-below entries first).
	ub := sort.Search(len(r.sg), func(i int) bool {
		return r.flags[i]&ivHasLo != 0 && r.lo[i] > v
	})
	if ub > 0 {
		r.descend(1, 0, r.treeW, ub, v, s)
	}
}

// descend reports every interval in [0, ub) whose upper bound admits v,
// pruning subtrees whose maximum upper bound is below v.
func (r *ivRun[T]) descend(node, nlo, nhi, ub int, v T, s candSink) {
	if nlo >= ub {
		return
	}
	if !r.infBit(node) && r.tree[node] < v {
		return
	}
	if nhi-nlo == 1 {
		e := r.entry(nlo)
		if e.match(v) {
			s.candidate(e.sg)
		}
		return
	}
	mid := (nlo + nhi) / 2
	r.descend(2*node, nlo, mid, ub, v, s)
	if ub > mid {
		r.descend(2*node+1, mid, nhi, ub, v, s)
	}
}

func (l *ivlist[T]) insert(x postOwner, e ivEntry[T]) {
	l.pend = append(l.pend, e)
	l.live++
	if len(l.pend) >= ivPendCap {
		l.promote(x)
	}
}

// removeLazy records a deletion; the row-generation bump invalidates the
// posting wherever it sits. A full compaction reclaims space when dead
// entries outnumber live ones.
func (l *ivlist[T]) removeLazy(x postOwner) {
	l.live--
	l.dead++
	if l.dead > l.live && l.dead > 32 {
		l.compact(x)
	}
}

// promote turns the pending buffer into a run and merges runs of
// comparable size (the logarithmic method's amortization step). The live
// entries are sorted in the buffer itself, which buildRun copies out of.
func (l *ivlist[T]) promote(x postOwner) {
	ents := l.pend[:0]
	for _, e := range l.pend {
		if x.rowLive(e.sg) {
			ents = append(ents, e)
		}
	}
	l.dead -= len(l.pend) - len(ents)
	l.pend = l.pend[:0]
	if len(ents) == 0 {
		return
	}
	slices.SortFunc(ents, func(a, b ivEntry[T]) int {
		if ivEntryLess(a, b) {
			return -1
		}
		if ivEntryLess(b, a) {
			return 1
		}
		return 0
	})
	run := buildRun(ents)
	for len(l.runs) > 0 && len(l.runs[len(l.runs)-1].sg) <= 2*len(run.sg) {
		run = l.mergeRuns(x, l.runs[len(l.runs)-1], run)
		l.runs = l.runs[:len(l.runs)-1]
	}
	if len(run.sg) > 0 {
		l.runs = append(l.runs, run)
		slices.SortFunc(l.runs, func(a, b *ivRun[T]) int { return len(b.sg) - len(a.sg) })
	}
}

// mergeRuns linearly merges two sorted runs, dropping generation-stale
// entries (the physical half of lazy deletion).
func (l *ivlist[T]) mergeRuns(x postOwner, a, b *ivRun[T]) *ivRun[T] {
	ents := make([]ivEntry[T], 0, len(a.sg)+len(b.sg))
	i, j := 0, 0
	for i < len(a.sg) || j < len(b.sg) {
		var e ivEntry[T]
		switch {
		case j >= len(b.sg):
			e = a.entry(i)
			i++
		case i >= len(a.sg):
			e = b.entry(j)
			j++
		case ivEntryLess(b.entry(j), a.entry(i)):
			e = b.entry(j)
			j++
		default:
			e = a.entry(i)
			i++
		}
		if x.rowLive(e.sg) {
			ents = append(ents, e)
		}
	}
	l.dead -= len(a.sg) + len(b.sg) - len(ents)
	return buildRun(ents)
}

// compact merges everything (runs and pending) into a single run.
//
// Like every drop of stale entries here it lowers dead by what it drops
// and leaves live alone: a row with several entries in one list has all of
// them dropped by the first compaction its removal triggers, and the rest
// of its removals still arrive to be counted (dead is negative meanwhile).
func (l *ivlist[T]) compact(x postOwner) {
	var ents []ivEntry[T]
	total := len(l.pend)
	for _, r := range l.runs {
		total += len(r.sg)
		for i := range r.sg {
			if x.rowLive(r.sg[i]) {
				ents = append(ents, r.entry(i))
			}
		}
	}
	for i := range l.pend {
		if x.rowLive(l.pend[i].sg) {
			ents = append(ents, l.pend[i])
		}
	}
	clear(l.runs) // the dropped runs go to the GC
	l.runs = l.runs[:0]
	l.pend = l.pend[:0]
	l.dead -= total - len(ents)
	if len(ents) == 0 {
		return
	}
	slices.SortFunc(ents, func(a, b ivEntry[T]) int {
		if ivEntryLess(a, b) {
			return -1
		}
		if ivEntryLess(b, a) {
			return 1
		}
		return 0
	})
	l.runs = append(l.runs, buildRun(ents))
}

// probe reports the intervals that admit v. A match-plane probe passes
// its index as x, which promotes a non-empty pending buffer into the runs
// first; the cover index's witness plane passes nil and scans the buffer.
func (l *ivlist[T]) probe(x postOwner, v T, s candSink) {
	l.promoteOnProbe(x)
	for _, r := range l.runs {
		r.probe(v, s)
	}
	for i := range l.pend {
		e := &l.pend[i]
		if e.match(v) {
			s.candidate(e.sg)
		}
	}
}

func (l *ivlist[T]) promoteOnProbe(x postOwner) {
	if x != nil && len(l.pend) > 0 {
		l.promote(x)
	}
}

// probeInclusive implements the NaN probe value path (see matchInclusive).
func (l *ivlist[T]) probeInclusive(x postOwner, s candSink) {
	l.promoteOnProbe(x)
	for _, r := range l.runs {
		for i := range r.sg {
			e := r.entry(i)
			if e.matchInclusive() {
				s.candidate(e.sg)
			}
		}
	}
	for i := range l.pend {
		e := &l.pend[i]
		if e.matchInclusive() {
			s.candidate(e.sg)
		}
	}
}

// each reports every entry, the probe for a query no bound comparison can
// settle (a NaN bound, which Value.Compare orders equal to everything).
func (l *ivlist[T]) each(s candSink) {
	for _, r := range l.runs {
		for _, sg := range r.sg {
			s.candidate(sg)
		}
	}
	for i := range l.pend {
		s.candidate(l.pend[i].sg)
	}
}

// ---------------------------------------------------------------------------
// Containment: the cover index's two interval queries.
// ---------------------------------------------------------------------------

// contains reports whether interval e accepts every value interval q does,
// with filter.Constraint.Covers' bound rules: a bound of e needs a bound of
// q at least as tight, and equal bounds need e inclusive or q open.
func (e *ivEntry[T]) contains(q *ivEntry[T]) bool {
	if e.flags&ivHasLo != 0 {
		if q.flags&ivHasLo == 0 || e.lo > q.lo ||
			(e.lo == q.lo && e.flags&ivLoInc == 0 && q.flags&ivLoInc != 0) {
			return false
		}
	}
	if e.flags&ivHasHi != 0 {
		if q.flags&ivHasHi == 0 || e.hi < q.hi ||
			(e.hi == q.hi && e.flags&ivHiInc == 0 && q.flags&ivHiInc != 0) {
			return false
		}
	}
	return true
}

// probeContaining reports every entry that contains q: the stabbing
// descent, cut at q's lower bound instead of at a value and pruned at its
// upper bound.
func (l *ivlist[T]) probeContaining(q ivEntry[T], s candSink) {
	for _, r := range l.runs {
		// Only entries whose lower bound is at or below q's can contain it;
		// they form a prefix of the run (unbounded-below entries first).
		ub := sort.Search(len(r.sg), func(i int) bool {
			return r.flags[i]&ivHasLo != 0 && (q.flags&ivHasLo == 0 || r.lo[i] > q.lo)
		})
		if ub > 0 {
			r.descendContaining(1, 0, r.treeW, ub, &q, s)
		}
	}
	for i := range l.pend {
		if e := &l.pend[i]; e.contains(&q) {
			s.candidate(e.sg)
		}
	}
}

// descendContaining is descend for probeContaining: a subtree is pruned
// when no interval in it reaches q's upper bound (or, for a q unbounded
// above, when every interval in it has an upper bound).
func (r *ivRun[T]) descendContaining(node, nlo, nhi, ub int, q *ivEntry[T], s candSink) {
	if nlo >= ub {
		return
	}
	if !r.infBit(node) && (q.flags&ivHasHi == 0 || r.tree[node] < q.hi) {
		return
	}
	if nhi-nlo == 1 {
		if e := r.entry(nlo); e.contains(q) {
			s.candidate(e.sg)
		}
		return
	}
	mid := (nlo + nhi) / 2
	r.descendContaining(2*node, nlo, mid, ub, q, s)
	if ub > mid {
		r.descendContaining(2*node+1, mid, nhi, ub, q, s)
	}
}

// probeContainedIn reports every entry q contains: a scan of the entries
// whose lower bound lies within q, each kept when its upper bound does too.
func (l *ivlist[T]) probeContainedIn(q ivEntry[T], s candSink) {
	for _, r := range l.runs {
		from := 0
		if q.flags&ivHasLo != 0 {
			from = sort.Search(len(r.sg), func(i int) bool {
				return r.flags[i]&ivHasLo != 0 && r.lo[i] >= q.lo
			})
		}
		for i := from; i < len(r.sg); i++ {
			if q.flags&ivHasHi != 0 && r.flags[i]&ivHasLo != 0 && r.lo[i] > q.hi {
				break
			}
			if e := r.entry(i); q.contains(&e) {
				s.candidate(e.sg)
			}
		}
	}
	for i := range l.pend {
		if e := &l.pend[i]; q.contains(e) {
			s.candidate(e.sg)
		}
	}
}

// ---------------------------------------------------------------------------
// ivSet: one attribute's interval lists, one per orderable operand kind.
// ---------------------------------------------------------------------------

// ivSet holds an attribute's interval postings in one list per operand
// kind: values of different kinds never compare, so a probe only ever
// needs the list of its own kind.
type ivSet struct {
	i ivlist[int64]
	f ivlist[float64]
	s ivlist[string]
}

// ivShape is an interval in constraint terms: the operand kind, the bounds
// (zero Values where absent) and the ivHasLo… flags.
type ivShape struct {
	kind   message.Kind
	lo, hi message.Value
	flags  uint8
}

// ordShape returns the interval an ordered constraint accepts, or false
// when the lists cannot hold it: a NaN bound (Value.Compare orders NaN
// equal to everything, which native order cannot), or operand kinds
// without a list.
func ordShape(c *filter.Constraint) (ivShape, bool) {
	k := orderedKind(c)
	if k == message.KindInvalid || orderedBoundNaN(c) {
		return ivShape{}, false
	}
	lo, hi := ordBounds(c)
	return ivShape{kind: k, lo: lo, hi: hi, flags: ordFlags(c)}, true
}

// pointShape returns the closed interval [v, v], or false for a value the
// lists cannot hold (NaN, bool).
func pointShape(v message.Value) (ivShape, bool) {
	switch v.Kind() {
	case message.KindInt, message.KindString:
	case message.KindFloat:
		if isNaNValue(v) {
			return ivShape{}, false
		}
	default:
		return ivShape{}, false
	}
	return ivShape{kind: v.Kind(), lo: v, hi: v, flags: ivHasLo | ivLoInc | ivHasHi | ivHiInc}, true
}

func ivOf[T ivOrd](lo, hi T, q *ivShape, sg slotGen) ivEntry[T] {
	return ivEntry[T]{lo: lo, hi: hi, flags: q.flags, sg: sg}
}

func (v *ivSet) insert(x postOwner, q ivShape, sg slotGen) {
	switch q.kind {
	case message.KindInt:
		v.i.insert(x, ivOf(q.lo.IntVal(), q.hi.IntVal(), &q, sg))
	case message.KindFloat:
		v.f.insert(x, ivOf(q.lo.FloatVal(), q.hi.FloatVal(), &q, sg))
	default:
		v.s.insert(x, ivOf(q.lo.Str(), q.hi.Str(), &q, sg))
	}
}

// probe reports the intervals that admit val: those of its own kind. x is
// as for ivlist.probe.
func (v *ivSet) probe(x postOwner, val message.Value, s candSink) {
	switch val.Kind() {
	case message.KindInt:
		v.i.probe(x, val.IntVal(), s)
	case message.KindFloat:
		if isNaNValue(val) {
			// Value.Compare orders NaN equal to everything, so NaN is
			// admitted exactly by the inclusive bounds.
			v.f.probeInclusive(x, s)
		} else {
			v.f.probe(x, val.FloatVal(), s)
		}
	case message.KindString:
		v.s.probe(x, val.Str(), s)
	}
}

func (v *ivSet) removeLazy(x postOwner, kind message.Kind) {
	switch kind {
	case message.KindInt:
		v.i.removeLazy(x)
	case message.KindFloat:
		v.f.removeLazy(x)
	default:
		v.s.removeLazy(x)
	}
}

// probeContaining reports the intervals of q's kind that contain q.
func (v *ivSet) probeContaining(q ivShape, s candSink) {
	switch q.kind {
	case message.KindInt:
		v.i.probeContaining(ivOf(q.lo.IntVal(), q.hi.IntVal(), &q, slotGen{}), s)
	case message.KindFloat:
		v.f.probeContaining(ivOf(q.lo.FloatVal(), q.hi.FloatVal(), &q, slotGen{}), s)
	default:
		v.s.probeContaining(ivOf(q.lo.Str(), q.hi.Str(), &q, slotGen{}), s)
	}
}

// probeContainedIn reports the intervals of q's kind that q contains.
func (v *ivSet) probeContainedIn(q ivShape, s candSink) {
	switch q.kind {
	case message.KindInt:
		v.i.probeContainedIn(ivOf(q.lo.IntVal(), q.hi.IntVal(), &q, slotGen{}), s)
	case message.KindFloat:
		v.f.probeContainedIn(ivOf(q.lo.FloatVal(), q.hi.FloatVal(), &q, slotGen{}), s)
	default:
		v.s.probeContainedIn(ivOf(q.lo.Str(), q.hi.Str(), &q, slotGen{}), s)
	}
}
