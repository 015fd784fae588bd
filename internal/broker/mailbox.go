package broker

import (
	"repro/internal/flow"
	"repro/internal/wire"
)

// mailbox is the broker's task queue: a flow.Queue of tasks consumed by
// the run goroutine, which makes every routing decision atomic (the
// paper's "routing decision is assumed to be an atomic operation",
// Section 2.2). It keeps the two-list drain-all design — producers
// append under the lock, the consumer swaps the whole pending list out
// with one popBatch acquisition and iterates it lock-free, recycle
// ping-pongs the backing arrays so the steady state allocates nothing.
//
// The default stays unbounded: the system model assumes error-free FIFO
// links, so out of the box backpressure is modeled as latency, not loss,
// and links can push without ever blocking. A bounded mailbox
// (Options.MailboxCapacity) sheds the newest notification when full,
// trading loss for bounded memory; it never stalls a link reader on
// data, so two neighbors pushing at each other cannot deadlock. Control
// tasks — closures and admin messages — are always admitted: shedding
// them would corrupt routing state, and blocking them would deadlock
// exec/Barrier. Deliveries (which a broker mailbox essentially never
// sees — they terminate at clients) are lossless: never shed, but they
// stall the pusher when the mailbox is full.
type mailbox struct {
	q *flow.Queue[task]
}

// task is either an inbound wire message or a control closure to execute
// on the broker goroutine. Exactly one of fn and in is meaningful: a task
// with fn == nil carries an inbound message.
type task struct {
	in inbound
	fn func()
}

// taskClass classifies tasks for the flow queue: closures are control by
// definition; messages take their wire admission class (publishes data,
// deliveries lossless, the rest control).
func taskClass(t task) flow.Class {
	if t.fn != nil {
		return flow.Control
	}
	return t.in.Msg.Type.FlowClass()
}

// newMailbox creates a mailbox. capacity bounds the queue (0 =
// unbounded); a bounded mailbox sheds the newest notification when full.
func newMailbox(capacity int) *mailbox {
	return &mailbox{q: flow.NewQueue[task](flow.Options{
		Capacity: capacity,
		Policy:   flow.ShedNewest,
	}, taskClass)}
}

// push enqueues a task. Pushing to a closed mailbox is a silent no-op
// (late messages during shutdown are dropped, mirroring a closed link),
// as is a push shed by a full bounded mailbox (the drop is counted in the
// queue's flow stats).
func (m *mailbox) push(t task) {
	_ = m.q.Push(t)
}

// pushBurst enqueues a burst of messages from one hop under one lock
// acquisition (the receiving half of a link-level batch send). Admission
// applies per message, so control messages inside a burst are admitted
// even when notifications around them are shed.
func (m *mailbox) pushBurst(from wire.Hop, ms []wire.Message) {
	if len(ms) == 0 {
		return
	}
	_, _ = m.q.PushBurst(len(ms), func(i int) task {
		return task{in: inbound{From: from, Msg: ms[i]}}
	})
}

// popBatch blocks until tasks are available or the mailbox is closed and
// drained; ok is false in the latter case. On success it returns the
// entire pending queue in FIFO order; the caller owns the slice and
// should hand it back via recycle when done.
func (m *mailbox) popBatch() ([]task, bool) { return m.q.PopBatch() }

// recycle keeps a drained batch's backing array for future pushes.
func (m *mailbox) recycle(batch []task) { m.q.Recycle(batch) }

// close stops accepting tasks; popBatch drains the remainder then reports
// done.
func (m *mailbox) close() { m.q.Close() }

// len returns the number of queued tasks (diagnostics only).
func (m *mailbox) len() int { return m.q.Len() }

// flowStats snapshots the queue's flow-control counters.
func (m *mailbox) flowStats() flow.Stats { return m.q.Stats() }
