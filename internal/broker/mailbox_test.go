package broker

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/message"
	"repro/internal/wire"
)

// drainAll pops batches until n tasks have been consumed, returning them
// in pop order.
func drainAll(t *testing.T, m *mailbox, n int) []task {
	t.Helper()
	var out []task
	for len(out) < n {
		batch, ok := m.popBatch()
		if !ok {
			t.Fatalf("popBatch reported done after %d of %d tasks", len(out), n)
		}
		out = append(out, batch...)
		m.recycle(batch)
	}
	if len(out) != n {
		t.Fatalf("drained %d tasks, want %d", len(out), n)
	}
	return out
}

func TestMailboxBatchFIFO(t *testing.T) {
	m := newMailbox(0)
	const n = 100
	var got []int
	for i := 0; i < n; i++ {
		i := i
		m.push(task{fn: func() { got = append(got, i) }})
	}
	if m.len() != n {
		t.Fatalf("len = %d", m.len())
	}
	for _, tk := range drainAll(t, m, n) {
		tk.fn()
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestMailboxCloseDrains(t *testing.T) {
	m := newMailbox(0)
	m.push(task{fn: func() {}})
	m.push(task{fn: func() {}})
	m.close()
	// Remaining tasks still pop after close.
	batch, ok := m.popBatch()
	if !ok || len(batch) != 2 {
		t.Fatalf("drained %d items after close, ok=%v", len(batch), ok)
	}
	if _, ok := m.popBatch(); ok {
		t.Fatal("popBatch after drain should report done")
	}
	// Pushing after close is a silent no-op.
	m.push(task{fn: func() {}})
	m.pushBurst(wire.BrokerHop("x"), []wire.Message{{}})
	if _, ok := m.popBatch(); ok {
		t.Fatal("push after close should be dropped")
	}
}

// TestMailboxDrainBatchProperty is the drain-batch property test: across
// concurrent pushers (mixing push and pushBatch), popBatch must lose
// nothing, duplicate nothing, and preserve exact FIFO order per pusher —
// the strongest order guarantee a multi-producer queue can offer.
func TestMailboxDrainBatchProperty(t *testing.T) {
	const producers, each = 8, 500
	for trial := 0; trial < 5; trial++ {
		m := newMailbox(0)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(trial*producers + p)))
				for i := 0; i < each; {
					// Mix single pushes with bursts, as links do. Bursts
					// carry their index in the message payload since a
					// burst shares one hop.
					if rng.Intn(2) == 0 {
						m.push(task{in: inboundTag(p, i)})
						i++
						continue
					}
					burst := 1 + rng.Intn(7)
					if i+burst > each {
						burst = each - i
					}
					ms := make([]wire.Message, burst)
					for j := 0; j < burst; j++ {
						ms[j] = taggedMsg(i + j)
					}
					m.pushBurst(producerHop(p), ms)
					i += burst
				}
			}()
		}

		consumed := make(chan [][]int, 1)
		go func() {
			perProducer := make([][]int, producers)
			total := 0
			for total < producers*each {
				batch, ok := m.popBatch()
				if !ok {
					break
				}
				for _, tk := range batch {
					p, i := tagOf(tk.in)
					perProducer[p] = append(perProducer[p], i)
				}
				total += len(batch)
				m.recycle(batch)
			}
			consumed <- perProducer
		}()

		wg.Wait()
		perProducer := <-consumed
		for p, seq := range perProducer {
			if len(seq) != each {
				t.Fatalf("trial %d: producer %d delivered %d of %d", trial, p, len(seq), each)
			}
			for i, v := range seq {
				if v != i {
					t.Fatalf("trial %d: producer %d order violated at %d: got %d", trial, p, i, v)
				}
			}
		}
	}
}

// The property test encodes the producer in the hop and the per-producer
// index in the message sequence field, so both push and pushBurst tasks
// carry provenance without touching task.fn.
func producerHop(p int) wire.Hop {
	return wire.BrokerHop(wire.BrokerID(strconv.Itoa(p)))
}

func taggedMsg(i int) wire.Message {
	return wire.Message{Type: wire.TypeDeliver, Deliver: &wire.Deliver{Item: wire.SeqNotification{Seq: uint64(i)}}}
}

func inboundTag(p, i int) inbound {
	return inbound{From: producerHop(p), Msg: taggedMsg(i)}
}

func tagOf(in inbound) (p, i int) {
	p, _ = strconv.Atoi(string(in.From.Broker))
	return p, int(in.Msg.Deliver.Item.Seq)
}

func TestMailboxPopBlocksUntilPush(t *testing.T) {
	m := newMailbox(0)
	got := make(chan struct{})
	go func() {
		if _, ok := m.popBatch(); ok {
			close(got)
		}
	}()
	m.push(task{fn: func() {}})
	<-got
}

// TestMailboxRecycleReuse checks the two-list design actually reuses
// backing arrays: after a push/pop/recycle cycle the next drain returns a
// slice with the recycled capacity.
func TestMailboxRecycleReuse(t *testing.T) {
	m := newMailbox(0)
	for i := 0; i < 64; i++ {
		m.push(task{fn: func() {}})
	}
	batch, _ := m.popBatch()
	c := cap(batch)
	m.recycle(batch)
	m.push(task{fn: func() {}})
	batch2, _ := m.popBatch()
	if cap(batch2) != c {
		t.Errorf("recycled capacity not reused: got %d, want %d", cap(batch2), c)
	}
	if len(batch2) != 1 || batch2[0].fn == nil {
		t.Fatal("expected the pushed task in the recycled slice")
	}
	// recycle must have cleared the stale tasks beyond the live length:
	// retained references would keep their closures/payloads from the GC.
	for i, tk := range batch2[1:cap(batch2)] {
		if tk.fn != nil {
			t.Fatalf("recycled slice retains stale task at %d", i+1)
		}
	}
}

// TestMailboxRecycleCap checks that spike-sized batches are not retained.
func TestMailboxRecycleCap(t *testing.T) {
	m := newMailbox(0)
	for i := 0; i < flow.MaxRecycledCap+1; i++ {
		m.push(task{fn: func() {}})
	}
	batch, _ := m.popBatch()
	m.recycle(batch)
	m.push(task{fn: func() {}})
	batch2, _ := m.popBatch()
	if cap(batch2) >= cap(batch) {
		t.Errorf("spike-sized array was retained: cap %d", cap(batch2))
	}
}

// TestMailboxBoundedShedsNotifications: a bounded mailbox sheds excess
// publishes but keeps every control task.
func TestMailboxBoundedShedsNotifications(t *testing.T) {
	m := newMailbox(2)
	pub := wire.NewPublish(message.Notification{})
	for i := 0; i < 5; i++ {
		m.push(task{in: inbound{From: wire.BrokerHop("x"), Msg: pub}})
	}
	m.push(task{fn: func() {}}) // control: admitted over capacity
	if got := m.len(); got != 3 {
		t.Fatalf("len = %d, want 2 publishes + 1 closure", got)
	}
	s := m.flowStats()
	if s.ShedNewest != 3 {
		t.Errorf("ShedNewest = %d, want 3", s.ShedNewest)
	}
	if s.ControlOverflow != 1 {
		t.Errorf("ControlOverflow = %d, want 1", s.ControlOverflow)
	}
}

// TestMailboxBoundedClosureNeverBlocks: exec/Barrier closures must land
// immediately even when a bounded mailbox is full, or Stats and Barrier
// would deadlock against a stalled consumer.
func TestMailboxBoundedClosureNeverBlocks(t *testing.T) {
	m := newMailbox(1)
	pub := wire.NewPublish(message.Notification{})
	m.push(task{in: inbound{From: wire.BrokerHop("x"), Msg: pub}})
	done := make(chan struct{})
	go func() {
		m.push(task{fn: func() {}})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("closure push blocked on a full mailbox")
	}
}

// TestMailboxBoundedBurstPolicyPerMessage: a burst mixing publishes and
// control through a full mailbox sheds only the publishes.
func TestMailboxBoundedBurstPolicyPerMessage(t *testing.T) {
	m := newMailbox(1)
	ms := []wire.Message{
		wire.NewPublish(message.Notification{}),
		wire.NewPublish(message.Notification{}), // shed: over capacity
		wire.NewSubscribe(wire.Subscription{}),  // control: admitted
	}
	m.pushBurst(wire.BrokerHop("x"), ms)
	batch, _ := m.popBatch()
	if len(batch) != 2 {
		t.Fatalf("admitted %d tasks, want 2", len(batch))
	}
	if batch[0].in.Msg.Type != wire.TypePublish || batch[1].in.Msg.Type != wire.TypeSubscribe {
		t.Fatalf("wrong survivors: %v, %v", batch[0].in.Msg.Type, batch[1].in.Msg.Type)
	}
}
