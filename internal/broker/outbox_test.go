package broker

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/wire"
)

// captureLink is a link test double: it records every message in arrival
// order and can be armed to fail writes.
type captureLink struct {
	mu   sync.Mutex
	msgs []wire.Message
	err  error
}

var _ transport.Link = (*captureLink)(nil)
var _ transport.BatchSender = (*captureLink)(nil)

func (l *captureLink) fail(err error) {
	l.mu.Lock()
	l.err = err
	l.mu.Unlock()
}

func (l *captureLink) Send(m wire.Message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.msgs = append(l.msgs, m)
	return nil
}

func (l *captureLink) SendBatch(ms []wire.Message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.msgs = append(l.msgs, ms...)
	return nil
}

func (l *captureLink) Close() error { return nil }

func (l *captureLink) sent() []wire.Message {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]wire.Message(nil), l.msgs...)
}

// parkRunLoop blocks the broker's run loop inside a closure until the
// returned release func is called, so every task queued meanwhile lands
// in the same mailbox drain.
func parkRunLoop(b *Broker) (release func()) {
	started, gate := make(chan struct{}), make(chan struct{})
	go func() {
		_ = b.exec(func() {
			close(started)
			<-gate
		})
	}()
	<-started
	return func() { close(gate) }
}

// TestBarrierFlushesOutbox pins the exec/Barrier contract: a closure
// queued behind messages — in the same mailbox drain — observes them
// already on the link, in handling order, because the run loop flushes
// the outbox before any closure runs.
func TestBarrierFlushesOutbox(t *testing.T) {
	b := New("hub", Options{Strategy: routing.Flooding})
	b.Start()
	defer b.Close()
	out := &captureLink{}
	if err := b.AddLink("leaf", out); err != nil {
		t.Fatal(err)
	}

	const rounds = 5
	const perRound = 20
	total := 0
	from := wire.ClientHop("p")
	for r := 0; r < rounds; r++ {
		release := parkRunLoop(b)
		for i := 0; i < perRound; i++ {
			b.Receive(transport.Inbound{From: from, Msg: wire.NewPublish(
				n1(fmt.Sprintf("m%d", total)))})
			total++
		}
		onLink := make(chan int, 1)
		b.box.push(task{fn: func() { onLink <- len(out.sent()) }})
		release()
		if got := <-onLink; got != total {
			t.Fatalf("round %d: closure saw %d messages on link, want %d", r, got, total)
		}
		b.Barrier()
		if got := len(out.sent()); got != total {
			t.Fatalf("round %d: %d messages on link after Barrier, want %d", r, got, total)
		}
	}
	for i, m := range out.sent() {
		want := fmt.Sprintf("m%d", i)
		if got := m.Notif.String(); !strings.Contains(got, want) {
			t.Fatalf("message %d out of order: got %s, want %s", i, got, want)
		}
	}
	if st := b.Stats(); st.LinkSendErrorsTotal != 0 {
		t.Errorf("LinkSendErrorsTotal = %d on a healthy link", st.LinkSendErrorsTotal)
	}
}

// sendOnlyLink hides captureLink's SendBatch, so the broker takes its
// plain Send-loop write path.
type sendOnlyLink struct{ c *captureLink }

func (l sendOnlyLink) Send(m wire.Message) error { return l.c.Send(m) }
func (l sendOnlyLink) Close() error              { return nil }

// TestLinkSendErrors verifies failed writes are counted per hop in Stats
// and logged exactly once per link transition, and that AddLink re-arms
// the log-once latch, on both the batching and the plain Send write path.
func TestLinkSendErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(*captureLink) transport.Link
	}{
		{"batch", func(c *captureLink) transport.Link { return c }},
		{"send", func(c *captureLink) transport.Link { return sendOnlyLink{c} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			log.SetOutput(&buf)
			defer log.SetOutput(os.Stderr)

			b := New("hub", Options{Strategy: routing.Flooding})
			b.Start()
			defer b.Close()
			out := &captureLink{}
			out.fail(errors.New("wire cut"))
			if err := b.AddLink("leaf", tc.wrap(out)); err != nil {
				t.Fatal(err)
			}

			from := wire.ClientHop("p")
			const rounds = 4
			for i := 0; i < rounds; i++ {
				b.Receive(transport.Inbound{From: from, Msg: wire.NewPublish(n1("x"))})
				b.Barrier() // one flush burst (and one failure) per round
			}

			st := b.Stats()
			hop := wire.BrokerHop("leaf")
			if st.LinkSendErrors[hop] != rounds {
				t.Fatalf("LinkSendErrors[%s] = %d, want %d (one per failed burst)",
					hop, st.LinkSendErrors[hop], rounds)
			}
			if st.LinkSendErrorsTotal != st.LinkSendErrors[hop] {
				t.Errorf("LinkSendErrorsTotal = %d, want %d",
					st.LinkSendErrorsTotal, st.LinkSendErrors[hop])
			}
			if n := strings.Count(buf.String(), "send to "); n != 1 {
				t.Errorf("logged %d send-failure lines, want exactly 1\n%s", n, buf.String())
			}

			// A replacement link re-arms the log-once latch.
			out2 := &captureLink{}
			out2.fail(errors.New("wire cut again"))
			if err := b.AddLink("leaf", tc.wrap(out2)); err != nil {
				t.Fatal(err)
			}
			b.Receive(transport.Inbound{From: from, Msg: wire.NewPublish(n1("y"))})
			b.Barrier()
			if n := strings.Count(buf.String(), "send to "); n != 2 {
				t.Errorf("logged %d send-failure lines after relink, want 2\n%s", n, buf.String())
			}
			if got := b.Stats().LinkSendErrors[hop]; got != rounds+1 {
				t.Errorf("LinkSendErrors[%s] = %d after relink, want %d (cumulative)", hop, got, rounds+1)
			}
		})
	}
}

// TestOutboxSweep pins the retain-cap fix: a pending-map entry whose
// neighbor is gone and whose queue is empty must be swept at the next
// flush instead of keeping its map slot forever.
func TestOutboxSweep(t *testing.T) {
	b := New("hub", Options{Strategy: routing.Flooding})
	b.Start()
	defer b.Close()

	// Orphan entries: neighbors that are neither linked nor retained
	// (the state a nilled spike buffer leaves behind once its link is
	// gone).
	_ = b.exec(func() {
		b.out.pending["ghost1"] = nil
		b.out.pending["ghost2"] = make([]wire.Message, 0, 4)
	})
	// Any flush cycle must sweep them.
	b.Receive(transport.Inbound{From: wire.ClientHop("p"), Msg: wire.NewPublish(n1("x"))})
	b.Barrier()
	_ = b.exec(func() {
		for _, id := range []wire.BrokerID{"ghost1", "ghost2"} {
			if _, ok := b.out.pending[id]; ok {
				t.Errorf("pending[%s] survived the sweep", id)
			}
		}
	})

	// A half-open neighbor with queued traffic must NOT be swept: the
	// burst is retained until AddLink shows up.
	_ = b.exec(func() {
		b.send(wire.BrokerHop("late"), wire.NewPublish(n1("keep")))
	})
	b.Barrier()
	_ = b.exec(func() {
		if len(b.out.pending["late"]) != 1 {
			t.Errorf("retained burst for half-open neighbor was lost: %v", b.out.pending["late"])
		}
	})
	out := &captureLink{}
	if err := b.AddLink("late", out); err != nil {
		t.Fatal(err)
	}
	b.Barrier()
	if got := len(out.sent()); got == 0 {
		t.Error("retained burst never flushed after AddLink")
	}
}

// TestRemoteClientDeliveryOrder checks that remote-client deliveries are
// written to the client's link as they are handled: after a Barrier every
// matched notification is on the link, in sequence order.
func TestRemoteClientDeliveryOrder(t *testing.T) {
	b := New("b1", Options{})
	b.Start()
	defer b.Close()
	cl := &captureLink{}
	if err := b.AttachRemoteClient("rc", cl); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(wire.Subscription{
		Filter: filter.MustParse(`sym = "ACME"`), Client: "rc", ID: "s",
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.AttachClient("p", nil); err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		b.Receive(transport.Inbound{From: wire.ClientHop("p"), Msg: wire.NewPublish(n1("ACME"))})
	}
	b.Barrier()
	msgs := cl.sent()
	if len(msgs) != n {
		t.Fatalf("%d deliveries on the client link after Barrier, want %d", len(msgs), n)
	}
	for i, m := range msgs {
		if m.Type != wire.TypeDeliver || m.Deliver == nil {
			t.Fatalf("message %d is %v, want a deliver", i, m.Type)
		}
		if got, want := m.Deliver.Item.Seq, uint64(i+1); got != want {
			t.Fatalf("delivery %d has seq %d, want %d (FIFO broken)", i, got, want)
		}
	}
}

// TestKillDiscards checks crash-stop semantics: traffic still queued in
// the mailbox when Kill lands is discarded unprocessed — none of it
// reaches the wire — and Kill returns promptly.
func TestKillDiscards(t *testing.T) {
	b := New("hub", Options{Strategy: routing.Flooding})
	b.Start()
	out := &captureLink{}
	if err := b.AddLink("leaf", out); err != nil {
		t.Fatal(err)
	}
	from := wire.ClientHop("p")
	b.Receive(transport.Inbound{From: from, Msg: wire.NewPublish(n1("x"))})
	b.Barrier()
	before := len(out.sent())
	if before != 1 {
		t.Fatalf("%d messages on link before Kill, want 1", before)
	}

	// Park the run loop so the next publishes stay queued, then kill the
	// broker under them.
	release := parkRunLoop(b)
	for i := 0; i < 10; i++ {
		b.Receive(transport.Inbound{From: from, Msg: wire.NewPublish(n1("y"))})
	}
	killed := make(chan struct{})
	go func() {
		b.Kill()
		close(killed)
	}()
	for !b.killed.Load() {
		runtime.Gosched()
	}
	release()
	select {
	case <-killed:
	case <-time.After(5 * time.Second):
		t.Fatal("Kill did not return")
	}
	b.Receive(transport.Inbound{From: from, Msg: wire.NewPublish(n1("z"))})
	if got := len(out.sent()); got != before {
		t.Errorf("killed broker wrote %d new messages", got-before)
	}
}
