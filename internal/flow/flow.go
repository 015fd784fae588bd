// Package flow provides the single bounded-queue primitive every
// queueing layer of the system shares: the broker mailbox, ChanLink send
// windows, and the TCPLink frame ring are all instances of Queue.
//
// A Queue is a FIFO with drain-all consumption (the consumer swaps the
// whole pending list out under one lock acquisition and iterates it
// lock-free), an optional capacity, and an overload policy that decides
// what happens when a producer finds the queue full: Block stalls the
// producer until the consumer drains (credit-based flow control),
// ShedNewest refuses the newcomer.
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
	// Block stalls the producer until the consumer drains the queue. A
	// drain takes everything, so stalled producers resume onto an empty
	// queue and wake in bursts instead of thrashing at the capacity
	// boundary. Lossless; the backpressure propagates to the producer.
	Block Policy = iota
	// ShedNewest refuses the new item (tail drop): Push returns ErrShed
	// and the queue keeps what it already holds.
	ShedNewest
)

var policyNames = [...]string{
	Block:      "block",
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
	// them, ShedNewest may refuse them.
	Data Class = iota
	// Lossless items are never dropped or shed, but they count against
	// capacity and block the producer on a full queue under *every*
	// policy (credit-stall accounting applies). Use for traffic whose
	// loss would corrupt peer state silently — e.g. sequence-numbered
	// client deliveries — while still bounding a stalled consumer.
	Lossless
	// Control items are admitted unconditionally, even over capacity
	// (counted as ControlOverflow): the control plane must neither lose
	// messages nor wait behind data credit.
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
	// pushed).
	Pushed uint64
	// CreditStalls counts Push calls that blocked waiting for credit:
	// data items under the Block policy, lossless items under every
	// policy.
	CreditStalls uint64
	// ShedNewest counts data items refused by the ShedNewest policy.
	// Control and lossless items are never shed.
	ShedNewest uint64
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

// Queue is a bounded FIFO of T with drain-all consumption. Producers
// Push (or PushBurst) under the queue's lock; a single consumer PopBatches
// the whole pending list in one acquisition and iterates it lock-free,
// handing the backing array back via Recycle so the steady state
// allocates nothing. Multiple producers are safe; the drain-all contract
// assumes one consumer.
type Queue[T any] struct {
	mu    sync.Mutex
	rcond *sync.Cond // consumer waits for items
	wcond *sync.Cond // stalled producers wait for credit

	opts    Options
	classOf func(T) Class // nil: every item is Data (or the queue is unbounded)

	items []T // pending items
	spare []T // recycled backing array for the next items slice

	stalled bool // a producer waits for credit; the next drain wakes it
	closed  bool

	highWater    int
	pushed       uint64
	creditStalls uint64
	shedNewest   uint64
	ctrlOverflow uint64
}

// NewQueue creates a queue. classOf assigns each item its admission
// class; nil means every item is Data. The classifier is consulted only
// when the queue is bounded.
func NewQueue[T any](opts Options, classOf func(T) Class) *Queue[T] {
	q := &Queue[T]{opts: opts}
	if opts.Capacity > 0 {
		q.classOf = classOf
	}
	q.rcond = sync.NewCond(&q.mu)
	q.wcond = sync.NewCond(&q.mu)
	return q
}

func (q *Queue[T]) class(v T) Class {
	if q.classOf == nil {
		return Data
	}
	return q.classOf(v)
}

// Push enqueues one item. Data items are subject to the capacity and
// policy: Block may stall, ShedNewest may refuse with ErrShed. Lossless
// items stall on a full queue but are never shed; control items are
// always admitted. Returns ErrClosed after Close.
func (q *Queue[T]) Push(v T) error {
	cl := q.class(v)
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.admitLocked(cl); err != nil {
		return err
	}
	q.appendLocked(v)
	return nil
}

// PushBurst enqueues n items produced by at(0..n-1) as one FIFO burst
// under one lock acquisition (the receiving half of a link-level batch)
// and returns how many it admitted. The policy applies per item — a
// control item inside a burst is admitted even if data items around it
// are shed — so a burst never aborts on overload; it returns ErrClosed
// only, when the queue closes before the burst completes (remaining items
// are dropped, mirroring a closed link). A Block stall inside a burst
// releases the lock, so bursts from different producers may interleave
// at the stall point; per-producer FIFO order is preserved regardless.
func (q *Queue[T]) PushBurst(n int, at func(int) T) (admitted int, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := 0; i < n; i++ {
		v := at(i)
		switch err := q.admitLocked(q.class(v)); err {
		case nil:
		case ErrShed:
			continue
		default:
			return admitted, err
		}
		q.appendLocked(v)
		admitted++
	}
	return admitted, nil
}

// admitLocked applies capacity and policy for one item; it may release
// the lock while a stalled producer waits for credit.
func (q *Queue[T]) admitLocked(cl Class) error {
	if q.closed {
		return ErrClosed
	}
	c := q.opts.Capacity
	if c == 0 || len(q.items) < c {
		return nil
	}
	switch {
	case cl == Control:
		q.ctrlOverflow++
		return nil
	case cl == Data && q.opts.Policy == ShedNewest:
		q.shedNewest++
		return ErrShed
	}
	// Block data, and lossless items under every policy: ShedNewest must
	// not touch lossless items, so stalling is the only bounded admission
	// left for them.
	q.creditStalls++
	for len(q.items) >= c && !q.closed {
		q.stalled = true
		q.wcond.Wait()
	}
	if q.closed {
		return ErrClosed
	}
	return nil
}

func (q *Queue[T]) appendLocked(v T) {
	if q.items == nil {
		q.items, q.spare = q.spare, nil
	}
	q.items = append(q.items, v)
	q.pushed++
	d := len(q.items)
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
// entire pending queue in FIFO order and wakes any producer stalled for
// credit; the caller owns the slice and should hand it back via Recycle
// when done.
func (q *Queue[T]) PopBatch() (batch []T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.rcond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	batch, q.items = q.items, nil
	if q.stalled {
		q.stalled = false
		q.wcond.Broadcast()
	}
	return batch, true
}

// MaxRecycledCap caps the backing array Recycle retains: a transient load
// spike must not pin its high-water batch allocation for the queue's
// lifetime.
const MaxRecycledCap = 1 << 16

// Recycle keeps a drained batch's backing array for future pushes, so the
// consumer's steady state allocates nothing. Kept arrays are cleared
// first (outside the lock: a drain hands the whole array out, so nothing
// else references it), dropping item references (closures, notification
// payloads) for the GC; discarded arrays go to the GC whole and skip the
// clearing.
func (q *Queue[T]) Recycle(batch []T) {
	if cap(batch) == 0 || cap(batch) > MaxRecycledCap {
		return
	}
	q.mu.Lock()
	keep := q.spare == nil || cap(batch) > cap(q.spare)
	q.mu.Unlock()
	if !keep {
		return
	}
	clear(batch)
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
	return len(q.items)
}

// Stats returns a snapshot of the queue's flow-control counters.
func (q *Queue[T]) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Capacity:        q.opts.Capacity,
		Policy:          q.opts.Policy,
		Depth:           len(q.items),
		HighWater:       q.highWater,
		Pushed:          q.pushed,
		CreditStalls:    q.creditStalls,
		ShedNewest:      q.shedNewest,
		ControlOverflow: q.ctrlOverflow,
	}
}
