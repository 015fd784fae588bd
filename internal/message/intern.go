package message

import (
	"sync"
	"sync/atomic"
)

// String interning for the frame decode path. A deployment publishes the
// same few attribute names ("temperature", "room", a location attribute) —
// and, for string-valued attributes, a bounded set of hot values ("4a",
// "parking") — millions of times, and before interning every TCP frame
// decode re-allocated each of them.
//
// An internTable is a copy-on-write map behind an atomic pointer: lookups
// are lock-free and — because the compiler elides the []byte→string
// conversion for map indexing — allocation-free on a hit. A miss copies
// the string and takes a mutex. Misses collect in a private pending map
// and are published together: every trip through the mutex (a miss, or a
// lookup of a string still pending) counts, and once the count reaches a
// quarter of the published table, one merged copy replaces it. A
// publish copies about five entries per mutex trip since the last one,
// so filling a table to n entries costs O(n) copies rather than the n²/2
// a copy per miss would, and a pending string that keeps being looked up
// is published after a bounded number of further trips.
//
// Tables are append-only and capped: attacker-controlled or unbounded
// name/value sets stop being interned once the cap is reached, so memory
// stays bounded while the hot strings of a real workload (seen early,
// seen often) keep their canonical copy forever. The cap is re-checked
// lock-free on the loaded table before the miss path, so a full table
// never sends decoders through the mutex. Names and values use separate
// tables so high-cardinality value traffic cannot crowd attribute names —
// the primary beneficiary — out of their slots.
type internTable struct {
	tab atomic.Pointer[map[string]string]
	max int

	mu      sync.Mutex
	pending map[string]string // interned but not yet in tab; under mu
	trips   int               // mutex trips since the last publish; under mu
}

func newInternTable(max int) *internTable {
	t := &internTable{max: max, pending: make(map[string]string)}
	m := make(map[string]string)
	t.tab.Store(&m)
	return t
}

func (t *internTable) bytes(b []byte) string {
	m := *t.tab.Load()
	if s, ok := m[string(b)]; ok {
		return s
	}
	if len(m) >= t.max {
		return string(b) // table full: stay off the mutex forever
	}
	return t.miss(string(b))
}

func (t *internTable) miss(s string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := *t.tab.Load()
	if c, ok := cur[s]; ok { // raced with a publish
		return c
	}
	c, ok := t.pending[s]
	if !ok {
		if len(cur)+len(t.pending) >= t.max {
			return s
		}
		t.pending[s], c = s, s
	}
	if t.trips++; t.trips >= max(1, len(cur)/4) || len(cur)+len(t.pending) >= t.max {
		t.publish(cur)
	}
	return c
}

// publish replaces the published table with cur plus every pending
// string. It runs under mu.
func (t *internTable) publish(cur map[string]string) {
	next := make(map[string]string, len(cur)+len(t.pending))
	for k, v := range cur {
		next[k] = v
	}
	for k, v := range t.pending {
		next[k] = v
	}
	t.tab.Store(&next)
	clear(t.pending)
	t.trips = 0
}

var (
	internedNames  = newInternTable(1 << 12)
	internedValues = newInternTable(1 << 12)
)

// maxInternedNameLen and maxInternedValueLen bound the strings eligible
// for interning: long strings rarely repeat, hashing them on every lookup
// would cost about as much as the copy the interner saves, and — because
// the tables never evict — an unbounded entry size would let a hostile
// peer pin up to cap × frame-size bytes for the life of the process.
const (
	maxInternedNameLen  = 64
	maxInternedValueLen = 32
)

// InternName returns a canonical string for the attribute name bytes. On a
// hit nothing is allocated; on a miss the name is copied once and, while
// the table has room, published for future frames. Oversized names fall
// back to a plain copy.
func InternName(b []byte) string {
	if len(b) > maxInternedNameLen {
		return string(b)
	}
	return internedNames.bytes(b)
}

// internValueBytes interns a short string attribute value. It is used
// only on the notification decode path — filter constraint constants and
// other control-plane strings must not consume the value table's slots.
func internValueBytes(b []byte) string {
	if len(b) > maxInternedValueLen {
		return string(b)
	}
	return internedValues.bytes(b)
}
