// Package flow provides the single bounded-queue primitive every
// queueing layer of the system shares: the broker mailbox, ChanLink send
// windows, and the TCPLink frame ring are all instances of Queue.
//
// A Queue is a FIFO with drain-batch consumption (the consumer swaps the
// whole pending list out under one lock acquisition and iterates it
// lock-free), an optional capacity, and a pluggable overload policy that
// decides what happens when a producer finds the queue full: Block stalls
// the producer with watermark hysteresis (credit-based flow control),
// DropOldest evicts from the head, ShedNewest refuses the newcomer.
//
// Items are split into three classes by a caller-supplied classifier.
// Control items (routing updates, relocation traffic, closures) are
// always admitted, even over capacity — shedding control would corrupt
// routing state and break the relocation protocol's FIFO argument, and
// blocking it could deadlock the control plane. Lossless items (client
// deliveries) are never dropped or shed — losing one would silently skip
// a sequence number — but they do count against capacity and stall the
// producer when the queue is full, whatever the policy, so a stalled
// consumer pins bounded memory. Only data items (notifications) are
// subject to the full policy. The paper's system model assumes
// error-free FIFO channels; a bounded queue keeps the FIFO guarantee for
// everything it admits and makes the loss explicit and accounted when a
// policy sheds.
package flow

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Policy selects what a bounded queue does with a data item pushed while
// the queue is at capacity.
type Policy uint8

const (
	// Block stalls the producer until the queue drains to its low-water
	// mark (watermark hysteresis: a full queue revokes producer credit,
	// and credit is restored only once the consumer has drained below
	// LowWater, so producers wake in bursts instead of thrashing at the
	// capacity boundary). Lossless; the backpressure propagates to the
	// producer.
	Block Policy = iota
	// DropOldest evicts the oldest data item to admit the new one: the
	// queue keeps the freshest window of notifications (head drop).
	DropOldest
	// ShedNewest refuses the new item (tail drop): Push returns ErrShed
	// and the queue keeps what it already holds.
	ShedNewest
)

var policyNames = [...]string{
	Block:      "block",
	DropOldest: "drop-oldest",
	ShedNewest: "shed-newest",
}

// String returns the policy's flag-friendly name.
func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// PolicyNames lists the accepted policy names, in declaration order.
func PolicyNames() []string {
	out := make([]string, len(policyNames))
	copy(out, policyNames[:])
	return out
}

// ParsePolicy parses a policy name (case-insensitive). The error lists
// the valid names, so flag typos are self-documenting.
func ParsePolicy(s string) (Policy, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for i, n := range policyNames {
		if name == n {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("flow: unknown policy %q (valid: %s)", s, strings.Join(PolicyNames(), ", "))
}

// Class is the admission class of a queued item, assigned by the
// queue's classifier.
type Class uint8

const (
	// Data items are fully subject to the overload policy: Block stalls
	// them, DropOldest may evict them, ShedNewest may refuse them.
	Data Class = iota
	// Lossless items are never dropped or shed, but they count against
	// capacity and block the producer on a full queue under *every*
	// policy (credit-stall accounting applies). Use for traffic whose
	// loss would corrupt peer state silently — e.g. sequence-numbered
	// client deliveries — while still bounding a stalled consumer.
	Lossless
	// Control items are admitted unconditionally, even over capacity
	// (counted as ControlOverflow), and never evicted: the control plane
	// must neither lose messages nor wait behind data credit.
	Control
)

// Errors returned by Push.
var (
	// ErrShed reports that the ShedNewest policy refused the item; the
	// queue is unchanged and the drop is counted in Stats.
	ErrShed = errors.New("flow: queue full, item shed")
	// ErrClosed reports a push to a closed queue.
	ErrClosed = errors.New("flow: queue closed")
)

// Options configures a Queue.
type Options struct {
	// Capacity bounds the number of queued items; 0 means unbounded
	// (no admission control, no per-item classification cost).
	Capacity int
	// Policy selects the overload behavior for data items when the
	// queue is full. The zero value is Block.
	Policy Policy
	// LowWater is the refill threshold for Block: a producer stalled by
	// a full queue resumes only once the depth has drained to LowWater
	// or below. 0 means Capacity/2; values >= Capacity are clamped to
	// Capacity-1 so a full queue always revokes credit.
	LowWater int
	// MaxDrain caps how many items one PopBatch returns; 0 means the
	// whole pending queue.
	MaxDrain int
}

// Stats is a snapshot of a queue's flow-control counters.
type Stats struct {
	// Capacity and Policy echo the configuration (0 = unbounded).
	Capacity int
	Policy   Policy
	// Depth is the current number of queued items; HighWater the
	// largest depth observed. For a bounded queue HighWater can exceed
	// Capacity only by control items admitted over the bound
	// (ControlOverflow counts those admissions).
	Depth     int
	HighWater int
	// Pushed counts items accepted into the queue (shed items are not
	// pushed; evicted items were).
	Pushed uint64
	// CreditStalls counts Push calls that blocked waiting for credit:
	// data items under the Block policy, lossless items under every
	// policy.
	CreditStalls uint64
	// DroppedOldest and ShedNewest count data items lost to the
	// respective policies. Control and lossless items are never dropped
	// or shed.
	DroppedOldest uint64
	ShedNewest    uint64
	// ControlOverflow counts control items admitted while the queue was
	// at or over capacity.
	ControlOverflow uint64
}

// Reporter is implemented by types that expose the flow statistics of an
// internal queue (links with send windows); brokers aggregate these into
// their own Stats for slow-consumer detection.
type Reporter interface {
	FlowStats() Stats
}

// Queue is a bounded FIFO of T with drain-batch consumption. Producers
// Push (or PushBurst) under the queue's lock; a single consumer PopBatches
// the whole pending list in one acquisition and iterates it lock-free,
// handing the backing array back via Recycle so the steady state
// allocates nothing. Multiple producers are safe; the drain-batch
// contract assumes one consumer.
type Queue[T any] struct {
	mu    sync.Mutex
	rcond *sync.Cond // consumer waits for items
	wcond *sync.Cond // stalled producers wait for credit

	opts    Options
	classOf func(T) Class
	track   bool // classify items (bounded queue with a classifier)
	onEvict func(T)

	items []T     // pending items; items[head:] are live
	cls   []Class // parallel class tags, maintained when track
	head  int     // index of the first live item (advanced by DropOldest)
	spare []T     // recycled backing array for the next items slice
	// split: items may share its backing array with a split-drain batch
	// still out with the consumer (see Recycle). Set by a split drain,
	// cleared when a whole drain hands the array out and drops it.
	split bool

	refill bool // Block: full queue seen, credit revoked until LowWater
	closed bool

	highWater     int
	pushed        uint64
	creditStalls  uint64
	droppedOldest uint64
	shedNewest    uint64
	ctrlOverflow  uint64
}

// NewQueue creates a queue. classOf assigns each item its admission
// class; nil means every item is Data. The classifier is consulted only
// when the queue is bounded.
func NewQueue[T any](opts Options, classOf func(T) Class) *Queue[T] {
	if opts.Capacity > 0 {
		if opts.LowWater <= 0 {
			opts.LowWater = opts.Capacity / 2
		}
		if opts.LowWater >= opts.Capacity {
			opts.LowWater = opts.Capacity - 1
		}
	}
	q := &Queue[T]{
		opts:    opts,
		classOf: classOf,
		track:   opts.Capacity > 0 && classOf != nil,
	}
	q.rcond = sync.NewCond(&q.mu)
	q.wcond = sync.NewCond(&q.mu)
	return q
}

// OnEvict registers fn, called once — with the queue's lock held — for
// each data item the DropOldest policy evicts. It lets the owner
// release per-item resources (pooled buffers, flush accounting) for
// items that will never reach PopBatch. fn must be fast and must not
// call back into the queue. Register before the first Push.
func (q *Queue[T]) OnEvict(fn func(T)) {
	q.mu.Lock()
	q.onEvict = fn
	q.mu.Unlock()
}

func (q *Queue[T]) depthLocked() int { return len(q.items) - q.head }

// Push enqueues one item. Data items are subject to the capacity and
// policy: Block may stall, DropOldest may evict an older data item,
// ShedNewest may refuse with ErrShed. Lossless items stall on a full
// queue but are never dropped; control items are always admitted.
// Returns ErrClosed after Close.
func (q *Queue[T]) Push(v T) error {
	cl := Data
	if q.track {
		cl = q.classOf(v)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.admitLocked(cl); err != nil {
		return err
	}
	q.appendLocked(v, cl)
	return nil
}

// PushBurst enqueues n items produced by at(0..n-1) as one FIFO burst
// under one lock acquisition (the receiving half of a link-level batch).
// The policy applies per item — a control item inside a burst is admitted
// even if data items around it are shed — so a burst never aborts on
// overload; it returns ErrClosed only, when the queue closes before the
// burst completes (remaining items are dropped, mirroring a closed link).
// A Block stall inside a burst releases the lock, so bursts from
// different producers may interleave at the stall point; per-producer
// FIFO order is preserved regardless.
func (q *Queue[T]) PushBurst(n int, at func(int) T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := 0; i < n; i++ {
		v := at(i)
		cl := Data
		if q.track {
			cl = q.classOf(v)
		}
		switch err := q.admitLocked(cl); err {
		case nil:
		case ErrShed:
			continue
		default:
			return err
		}
		q.appendLocked(v, cl)
	}
	return nil
}

// admitLocked applies capacity and policy for one item; it may release
// the lock while a stalled producer waits for credit.
func (q *Queue[T]) admitLocked(cl Class) error {
	if q.closed {
		return ErrClosed
	}
	c := q.opts.Capacity
	if c == 0 {
		return nil
	}
	if cl == Control {
		if q.depthLocked() >= c {
			q.ctrlOverflow++
		}
		return nil
	}
	// Lossless items stall on a full queue under every policy: the drop
	// policies must not touch them, so blocking is the only bounded
	// admission left.
	if cl == Lossless || q.opts.Policy == Block {
		return q.waitCreditLocked()
	}
	switch q.opts.Policy {
	case DropOldest:
		for q.depthLocked() >= c {
			if !q.evictOldestLocked() {
				break // nothing evictable: no data among the queued items
			}
			q.droppedOldest++
		}
	case ShedNewest:
		if q.depthLocked() >= c {
			q.shedNewest++
			return ErrShed
		}
	}
	return nil
}

// waitCreditLocked stalls the producer until the queue drains to the
// low-water mark (watermark hysteresis) or closes.
func (q *Queue[T]) waitCreditLocked() error {
	c := q.opts.Capacity
	stalled := false
	for !q.closed {
		if !q.refill && q.depthLocked() < c {
			break
		}
		if q.depthLocked() >= c {
			q.refill = true
		}
		if !stalled {
			stalled = true
			q.creditStalls++
		}
		q.wcond.Wait()
	}
	if q.closed {
		return ErrClosed
	}
	return nil
}

// evictOldestLocked drops the oldest *data* item, skipping any
// control/lossless prefix (neither is ever evicted). Reports false when
// the queue holds no data at all.
func (q *Queue[T]) evictOldestLocked() bool {
	i := q.head
	if q.track {
		for i < len(q.items) && q.cls[i] != Data {
			i++
		}
		if i == len(q.items) {
			return false
		}
	}
	evicted := q.items[i]
	// Shift the (normally empty) non-data prefix one cell toward the
	// tail, overwriting the evicted data item; relative order within the
	// prefix and against everything behind it is preserved.
	if i > q.head {
		copy(q.items[q.head+1:i+1], q.items[q.head:i])
		copy(q.cls[q.head+1:i+1], q.cls[q.head:i])
	}
	var zero T
	q.items[q.head] = zero // release the reference for the GC
	q.head++
	if q.onEvict != nil {
		q.onEvict(evicted)
	}
	return true
}

// compactMinHead is the head advance below which compaction isn't worth
// it; past it, compacting once the dead prefix reaches half the slice
// keeps the backing array within ~2x of the live depth at an amortized
// O(1) copy per append.
const compactMinHead = 64

// compactLocked moves the live region to the front of the recycled spare
// array (or a fresh one), releasing the prefix consumed by head
// advances. Without it, a DropOldest queue whose consumer has stalled
// evicts from the head and appends at the tail forever, growing the
// backing array linearly with traffic. It deliberately never slides in
// place: a split-drain batch handed out by PopBatch may still alias the
// front of the current array.
func (q *Queue[T]) compactLocked() {
	live := q.items[q.head:]
	dst := q.spare
	q.spare = nil
	if cap(dst) < len(live) {
		dst = make([]T, 0, cap(q.items))
	}
	q.items = append(dst[:0], live...)
	if q.track {
		q.cls = append(q.cls[:0:0], q.cls[q.head:]...)
	}
	q.head = 0
}

func (q *Queue[T]) appendLocked(v T, cl Class) {
	if q.items == nil {
		q.items, q.spare = q.spare, nil
		q.head = 0
	}
	if q.head >= compactMinHead && q.head*2 >= len(q.items) {
		q.compactLocked()
	}
	q.items = append(q.items, v)
	if q.track {
		q.cls = append(q.cls, cl)
	}
	q.pushed++
	d := q.depthLocked()
	if d > q.highWater {
		q.highWater = d
	}
	if d == 1 {
		// Empty → non-empty transition: the (single) consumer only ever
		// waits on an empty queue, so this is the only append that can
		// have a waiter to wake. Signaling here rather than once per
		// Push/PushBurst also survives a Block stall mid-burst, after
		// which the consumer may have drained everything and gone back
		// to waiting.
		q.rcond.Signal()
	}
}

// PopBatch blocks until items are available or the queue is closed and
// drained; ok is false in the latter case. On success it returns the
// entire pending queue (up to MaxDrain items) in FIFO order; the caller
// owns the slice and should hand it back via Recycle when done.
func (q *Queue[T]) PopBatch() (batch []T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.depthLocked() == 0 && !q.closed {
		q.rcond.Wait()
	}
	if q.depthLocked() == 0 {
		return nil, false
	}
	if max := q.opts.MaxDrain; max > 0 && q.depthLocked() > max {
		// Split drain: the batch and the live remainder share one array,
		// but the 3-index slice caps the batch at max, so a recycled
		// batch can never append into the remainder's cells.
		batch = q.items[q.head : q.head+max : q.head+max]
		q.head += max
		q.split = true
	} else {
		batch = q.items[q.head:]
		q.items = nil
		q.head = 0
		q.split = false
		if q.track {
			if cap(q.cls) > MaxRecycledCap {
				q.cls = nil
			} else {
				q.cls = q.cls[:0]
			}
		}
	}
	q.grantCreditLocked()
	return batch, true
}

// grantCreditLocked wakes Block producers once the drain has reached the
// low-water mark.
func (q *Queue[T]) grantCreditLocked() {
	if q.refill && q.depthLocked() <= q.opts.LowWater {
		q.refill = false
		q.wcond.Broadcast()
	}
}

// MaxRecycledCap caps the backing array Recycle retains: a transient load
// spike must not pin its high-water batch allocation for the queue's
// lifetime.
const MaxRecycledCap = 1 << 16

// Recycle keeps a drained batch's backing array for future pushes, so the
// consumer's steady state allocates nothing. Kept arrays are cleared
// first, dropping item references (closures, notification payloads) for
// the GC; discarded arrays go to the GC whole and skip the clearing.
//
// A batch is not kept while the live queue may still share its array (a
// split drain's batch, until a whole drain takes the rest): clearing it
// outside the lock would race with a Push whose append copies the array.
func (q *Queue[T]) Recycle(batch []T) {
	if cap(batch) == 0 || cap(batch) > MaxRecycledCap {
		return
	}
	q.mu.Lock()
	keep := !q.split && (q.spare == nil || cap(batch) > cap(q.spare))
	q.mu.Unlock()
	if !keep {
		return
	}
	var zero T
	for i := range batch {
		batch[i] = zero
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.spare == nil || cap(batch) > cap(q.spare) {
		q.spare = batch[:0]
	}
}

// Close stops accepting items: pending pushes and stalled Block producers
// fail with ErrClosed; PopBatch drains the remainder then reports done.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.rcond.Broadcast()
	q.wcond.Broadcast()
}

// Len returns the number of queued items (diagnostics only).
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depthLocked()
}

// Stats returns a snapshot of the queue's flow-control counters.
func (q *Queue[T]) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Capacity:        q.opts.Capacity,
		Policy:          q.opts.Policy,
		Depth:           q.depthLocked(),
		HighWater:       q.highWater,
		Pushed:          q.pushed,
		CreditStalls:    q.creditStalls,
		DroppedOldest:   q.droppedOldest,
		ShedNewest:      q.shedNewest,
		ControlOverflow: q.ctrlOverflow,
	}
}
