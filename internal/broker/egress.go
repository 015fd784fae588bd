package broker

import (
	"log"
	"sync"
	"time"

	"repro/internal/flow"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Parallel egress: when Options.EgressWriters > 0, flushOutbox stops
// performing link writes (and their syscalls) inline on the run goroutine
// and instead hands each neighbor's burst to a sharded writer pool. Every
// link is pinned to one shard by hashing its hop identity (hopShard),
// each shard is one bounded flow.Queue drained by one writer goroutine,
// and the writer performs the SendBatch/Flush calls — so a hub's links are
// written concurrently and a slow socket delays only the links sharing its
// shard, not the run loop.
//
// Per-link FIFO holds by construction: the pinning is a pure function of
// the hop (a link never migrates between shards), the run goroutine is
// the only producer (every egress push happens on it), the shard queue is
// FIFO, and each shard has exactly one drainer — so the per-link send
// order equals the run goroutine's handoff order, which is exactly the
// order the inline path writes (see DESIGN.md, "Parallel egress").
//
// Control messages that rely on "outbox flushed before a control closure
// runs" (the exec/Barrier contract behind AddLink/RemoveLink/relocation)
// are preserved by a drain barrier: before a closure executes, the run
// goroutine pushes a Control-class barrier op into every shard it has
// written to since the last barrier and waits until the writers have
// passed it — everything handed off earlier is then on the wire (or in
// the link's own send window, exactly as deep as the inline path pushes).

// egressOp is one unit of writer-shard work: a message bound for a link,
// or — when barrier is non-nil — a drain marker the writer acknowledges.
type egressOp struct {
	link transport.Link
	hop  wire.Hop
	msg  wire.Message
	// barrier, when non-nil, marks a drain barrier: the writer calls
	// Done() when every earlier op of the shard has been written.
	barrier *sync.WaitGroup
}

// egressClass classifies ops for the shard queue's admission control:
// barriers are Control (never shed, admitted over capacity, so a barrier
// push cannot deadlock against a full window), messages keep their wire
// class — publishes shed per policy, deliveries and control traffic are
// lossless.
func egressClass(op egressOp) flow.Class {
	if op.barrier != nil {
		return flow.Control
	}
	return op.msg.Type.FlowClass()
}

// egressPool is the sharded writer pool. Created at New when
// Options.EgressWriters > 0; goroutines run from Start until the run
// goroutine exits.
type egressPool struct {
	b      *Broker
	shards []*flow.Queue[egressOp]
	// dirty marks shards written to since the last drain barrier, so a
	// barrier skips idle shards. Owned by the run goroutine.
	dirty []bool
	// wg is the reusable drain-barrier waiter. Only the run goroutine
	// Adds and Waits; writers Done.
	wg   sync.WaitGroup
	done sync.WaitGroup // writer goroutine exits
}

func newEgressPool(b *Broker, writers int, window flow.Options) *egressPool {
	e := &egressPool{
		b:      b,
		shards: make([]*flow.Queue[egressOp], writers),
		dirty:  make([]bool, writers),
	}
	for i := range e.shards {
		q := flow.NewQueue[egressOp](window, egressClass)
		// Eviction can only hit Data ops (barriers are Control), but if
		// that invariant ever broke, losing a barrier acknowledgment
		// would wedge the run loop — fail safe and release it.
		q.OnEvict(func(op egressOp) {
			if op.barrier != nil {
				op.barrier.Done()
			}
		})
		e.shards[i] = q
	}
	return e
}

// start launches one writer goroutine per shard.
func (e *egressPool) start() {
	for _, q := range e.shards {
		e.done.Add(1)
		go e.writer(q)
	}
}

// stop closes the shard queues and waits for the writers to drain them
// and exit. Called by the run goroutine on its way out, before it closes
// the links, so every accepted op still reaches the wire.
func (e *egressPool) stop() {
	for _, q := range e.shards {
		q.Close()
	}
	e.done.Wait()
}

// shardOf returns the writer shard a hop is pinned to. A pure function
// of the hop identity: the pinning never changes for the life of the
// broker, which is what makes per-link FIFO a construction property.
func (e *egressPool) shardOf(hop wire.Hop) int {
	return hopShard(hop, len(e.shards))
}

// hopShard maps a hop onto one of n shards (FNV-1a over the hop
// identity): one hop always lands on the same shard.
func hopShard(h wire.Hop, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	hash := uint64(offset64)
	for i := 0; i < len(h.Client); i++ {
		hash ^= uint64(h.Client[i])
		hash *= prime64
	}
	hash ^= '/'
	hash *= prime64
	for i := 0; i < len(h.Broker); i++ {
		hash ^= uint64(h.Broker[i])
		hash *= prime64
	}
	return int(hash % uint64(n))
}

// handoff transfers one neighbor's outbox burst to its shard. The queue
// copies the ops under its lock, so the caller's msgs slice is
// immediately reusable. Run goroutine only. A Block-policy window may
// stall here when the shard is full — that is the backpressure contract:
// the run loop pauses for exactly the producers of this shard's links.
func (e *egressPool) handoff(hop wire.Hop, l transport.Link, msgs []wire.Message) {
	sh := e.shardOf(hop)
	e.dirty[sh] = true
	// ErrClosed can only follow run-loop exit; ops are dropped like
	// writes to a closed link.
	_ = e.shards[sh].PushBurst(len(msgs), func(i int) egressOp {
		return egressOp{link: l, hop: hop, msg: msgs[i]}
	})
}

// handoffOne transfers a single message (remote-client deliveries, which
// bypass the outbox). Run goroutine only.
func (e *egressPool) handoffOne(hop wire.Hop, l transport.Link, m wire.Message) {
	sh := e.shardOf(hop)
	e.dirty[sh] = true
	_ = e.shards[sh].Push(egressOp{link: l, hop: hop, msg: m})
}

// drainBarrier blocks until every op handed off so far has been written.
// Run goroutine only; called before each control closure so the
// exec/Barrier contract ("earlier output is on the wire before the
// closure observes the broker") survives the asynchronous handoff.
func (e *egressPool) drainBarrier() {
	for sh, q := range e.shards {
		if !e.dirty[sh] {
			continue
		}
		e.dirty[sh] = false
		e.wg.Add(1)
		if q.Push(egressOp{barrier: &e.wg}) != nil {
			e.wg.Done() // closed: the writer has already drained out
		}
	}
	e.wg.Wait()
}

// writer drains one shard until its queue closes: barriers are
// acknowledged in place, and maximal runs of consecutive ops for the
// same link are regrouped into one SendBatch burst — the handoff is
// per-message so flow classes apply individually, but the wire sees the
// same per-link bursts the inline flushOutbox wrote.
func (e *egressPool) writer(q *flow.Queue[egressOp]) {
	defer e.done.Done()
	var burst []wire.Message
	for {
		batch, ok := q.PopBatch()
		if !ok {
			return
		}
		for i := 0; i < len(batch); {
			if batch[i].barrier != nil {
				batch[i].barrier.Done()
				i++
				continue
			}
			j := i + 1
			for j < len(batch) && batch[j].barrier == nil && batch[j].link == batch[i].link {
				j++
			}
			burst = burst[:0]
			for k := i; k < j; k++ {
				burst = append(burst, batch[k].msg)
			}
			e.flush(batch[i].hop, batch[i].link, burst)
			i = j
		}
		q.Recycle(batch)
		if cap(burst) > flow.MaxRecycledCap {
			burst = nil
		}
	}
}

// flush writes one regrouped burst to its link, timing the call into the
// broker's egress flush-latency distribution and recording any error.
// Runs on a writer goroutine; links are safe for concurrent use from one
// writer per link (the shard pinning guarantees exactly that).
func (e *egressPool) flush(hop wire.Hop, l transport.Link, msgs []wire.Message) {
	if e.b.killed.Load() {
		return // crash-stop: nothing reaches the wire
	}
	start := time.Now()
	err := sendBurst(l, msgs)
	e.b.egressFlushLat.Observe(uint64(time.Since(start)))
	if err != nil {
		e.b.sendErrs.record(e.b.id, hop, err)
	}
}

// shardStats snapshots every shard queue's flow counters.
func (e *egressPool) shardStats() []flow.Stats {
	out := make([]flow.Stats, len(e.shards))
	for i, q := range e.shards {
		out[i] = q.Stats()
	}
	return out
}

// sendBurst writes one per-link burst: batching transports get the whole
// slice, plain links a Send loop plus Flush. The first error is returned
// (later messages are still attempted — a transport that failed once
// fails them all cheaply). Shared by the inline flushOutbox path and the
// egress writers; safe from any goroutine, the links synchronize
// internally.
func sendBurst(l transport.Link, msgs []wire.Message) error {
	if bs, ok := l.(transport.BatchSender); ok {
		return bs.SendBatch(msgs)
	}
	var err error
	for _, m := range msgs {
		if e := l.Send(m); e != nil && err == nil {
			err = e
		}
	}
	if fl, ok := l.(transport.Flusher); ok {
		if e := fl.Flush(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// linkErrTracker counts failed link writes per hop and logs the first
// failure of each link transition, so a dying peer is visible without a
// log line per lost message. Written from the run goroutine (inline
// flushes) and the egress writers, hence the lock; reads go through
// Stats.
type linkErrTracker struct {
	mu     sync.Mutex
	counts map[wire.Hop]uint64
	logged map[wire.Hop]bool
}

// record counts one failed write and logs the link's first failure since
// the last reset.
func (t *linkErrTracker) record(broker wire.BrokerID, hop wire.Hop, err error) {
	t.mu.Lock()
	if t.counts == nil {
		t.counts = make(map[wire.Hop]uint64)
		t.logged = make(map[wire.Hop]bool)
	}
	t.counts[hop]++
	first := !t.logged[hop]
	t.logged[hop] = true
	n := t.counts[hop]
	t.mu.Unlock()
	if first {
		log.Printf("broker %s: send to %s failed: %v (error %d; further errors on this link are counted silently)",
			broker, hop, err, n)
	}
}

// reset re-arms the log-once latch for a hop — AddLink/RemoveLink call it
// so a replacement link's first failure is logged again. The error count
// is cumulative across link generations.
func (t *linkErrTracker) reset(hop wire.Hop) {
	t.mu.Lock()
	delete(t.logged, hop)
	t.mu.Unlock()
}

// snapshot copies the per-hop error counts (nil when clean).
func (t *linkErrTracker) snapshot() (m map[wire.Hop]uint64, total uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.counts) == 0 {
		return nil, 0
	}
	m = make(map[wire.Hop]uint64, len(t.counts))
	for h, n := range t.counts {
		m[h] = n
		total += n
	}
	return m, total
}
