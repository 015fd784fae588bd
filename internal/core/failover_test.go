package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/location"
	"repro/internal/message"
	"repro/internal/wire"
)

// quoteFilter matches the stockNotif test notifications.
func quoteFilter() filter.Filter {
	return filter.MustParse(`type = "quote"`)
}

// TestFailNowTransitBrokerPlainSubs kills the middle broker of a chain:
// the surviving ends must re-attach to each other and plain subscriptions
// must flow again across the repaired edge.
func TestFailNowTransitBrokerPlainSubs(t *testing.T) {
	net, ids := newChain(t, 5) // b1 - b2 - b3 - b4 - b5

	var got collector
	consumer, err := net.NewClient("consumer", ids[0], got.handle)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("producer", ids[4], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := consumer.Subscribe(SubSpec{ID: "s1", Filter: quoteFilter()}); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if err := producer.Publish(stockNotif("A", 1)); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if got.len() != 1 {
		t.Fatalf("pre-failure delivery missing: %d events", got.len())
	}

	if err := net.FailNow(ids[2]); err != nil { // kill b3 (transit)
		t.Fatal(err)
	}
	net.Settle()

	if err := producer.Publish(stockNotif("B", 2)); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	events := got.snapshot()
	if len(events) != 2 {
		t.Fatalf("post-repair delivery missing: %d events (want 2)", len(events))
	}
	// Sequence numbering continues: the subscription never moved.
	if events[1].Seq != events[0].Seq+1 {
		t.Fatalf("sequence gap after repair: %d then %d", events[0].Seq, events[1].Seq)
	}
}

// TestFailNowTransitBrokerLocDepSub kills the middle broker of a chain
// under a location-dependent subscriber: repair must re-offer the
// subscription across the new edge like any other per-client one, both
// when an advertisement points toward the producer and when none is
// known (the flood fallback).
func TestFailNowTransitBrokerLocDepSub(t *testing.T) {
	for _, advertise := range []bool{false, true} {
		t.Run(fmt.Sprintf("advertise=%v", advertise), func(t *testing.T) {
			net, ids := newChain(t, 3) // b1 - b2 - b3
			if err := net.RegisterGraph("abc", location.Complete("A", "B", "C")); err != nil {
				t.Fatal(err)
			}
			var got collector
			consumer, err := net.NewClient("consumer", ids[0], got.handle)
			if err != nil {
				t.Fatal(err)
			}
			producer, err := net.NewClient("producer", ids[2], nil)
			if err != nil {
				t.Fatal(err)
			}
			if advertise {
				if err := producer.Advertise("a1", quoteFilter()); err != nil {
					t.Fatal(err)
				}
				net.Settle()
			}
			err = consumer.Subscribe(SubSpec{
				ID:     "loc",
				Filter: filter.MustParse(`type = "quote" && sym = "$myloc"`),
				Loc:    &LocSpec{Graph: "abc", Attr: "sym", Start: "A"},
			})
			if err != nil {
				t.Fatal(err)
			}
			net.Settle()
			if err := producer.Publish(stockNotif("A", 1)); err != nil {
				t.Fatal(err)
			}
			net.Settle()
			if got.len() != 1 {
				t.Fatalf("pre-failure delivery missing: %d events", got.len())
			}

			if err := net.FailNow(ids[1]); err != nil { // kill b2 (transit)
				t.Fatal(err)
			}
			net.Settle()
			if err := producer.Publish(stockNotif("A", 2)); err != nil {
				t.Fatal(err)
			}
			net.Settle()
			if got.len() != 2 {
				t.Fatalf("post-repair delivery missing: %d events (want 2)", got.len())
			}
		})
	}
}

// TestFailNowOrphanedMobileClient kills the border broker of a mobile
// subscriber: the client must fail over to the repair parent and resume
// deliveries after the relocation timeout expires (the crashed broker
// cannot replay).
func TestFailNowOrphanedMobileClient(t *testing.T) {
	net, ids := newChain(t, 4, WithRelocTimeout(50*time.Millisecond))

	var got collector
	consumer, err := net.NewClient("consumer", ids[3], got.handle) // at b4
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("producer", ids[0], nil) // at b1
	if err != nil {
		t.Fatal(err)
	}
	if err := consumer.Subscribe(SubSpec{ID: "m1", Filter: quoteFilter(), Mobile: true}); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if err := producer.Publish(stockNotif("A", 1)); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if got.len() != 1 {
		t.Fatalf("pre-failure delivery missing: %d events", got.len())
	}

	if err := net.FailNow(ids[3]); err != nil { // kill the consumer's home b4
		t.Fatal(err)
	}
	net.Settle()
	if at := consumer.At(); at != ids[2] {
		t.Fatalf("consumer failed over to %q, want %q", at, ids[2])
	}

	if err := producer.Publish(stockNotif("B", 2)); err != nil {
		t.Fatal(err)
	}
	// The re-subscription went through the relocation protocol; no replay
	// can arrive, so delivery resumes once RelocTimeout flushes.
	waitFor(t, "post-failover delivery", func() bool {
		net.Settle()
		return got.len() >= 2
	})
	events := got.snapshot()
	last := events[len(events)-1]
	if sym, _ := last.Notification.Get("sym"); sym != message.String("B") {
		t.Fatalf("unexpected post-failover notification: %v", last.Notification)
	}
	// No duplicate of A, and numbering continued past the pre-crash seq.
	if last.Seq <= events[0].Seq {
		t.Fatalf("sequence did not continue: %d then %d", events[0].Seq, last.Seq)
	}
}

// TestFailNowProducerSide kills the producer's border broker: the
// producer must fail over and its advertisement must re-announce so
// advertisement-gated subscriptions keep routing.
func TestFailNowProducerSide(t *testing.T) {
	net, ids := newChain(t, 4)

	var got collector
	consumer, err := net.NewClient("consumer", ids[0], got.handle)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("producer", ids[3], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := producer.Advertise("a1", quoteFilter()); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if err := consumer.Subscribe(SubSpec{ID: "s1", Filter: quoteFilter()}); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	if err := net.FailNow(ids[3]); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if at := producer.At(); at != ids[2] {
		t.Fatalf("producer failed over to %q, want %q", at, ids[2])
	}
	if err := producer.Publish(stockNotif("C", 3)); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if got.len() != 1 {
		t.Fatalf("post-failover publish not delivered: %d events", got.len())
	}
}

// TestFailNowStarCenter kills the center of a star: all leaves must
// re-attach under the lowest-ID survivor and remain mutually reachable.
func TestFailNowStarCenter(t *testing.T) {
	net := NewNetwork()
	t.Cleanup(net.Close)
	center := wire.BrokerID("hub")
	net.MustAddBroker(center)
	leaves := []wire.BrokerID{"l1", "l2", "l3", "l4"}
	for _, l := range leaves {
		net.MustAddBroker(l)
		net.MustConnect(center, l, 0)
	}

	var got collector
	consumer, err := net.NewClient("consumer", "l1", got.handle)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("producer", "l4", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := consumer.Subscribe(SubSpec{ID: "s1", Filter: quoteFilter()}); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	if err := net.FailNow(center); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	if err := producer.Publish(stockNotif("D", 4)); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if got.len() != 1 {
		t.Fatalf("star repair failed: %d events", got.len())
	}
}

// TestSelfHealingDetectsCrash exercises the full detector path: Kill
// marks the broker silent, the detector declares it failed once the TTL
// has passed, and repairs the overlay — no FailNow.
func TestSelfHealingDetectsCrash(t *testing.T) {
	var (
		mu     sync.Mutex
		events []RepairEvent
	)
	net, ids := newChain(t, 3,
		WithSelfHealing(10*time.Millisecond, 120*time.Millisecond),
		WithRepairObserver(func(e RepairEvent) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		}),
	)

	var got collector
	consumer, err := net.NewClient("consumer", ids[0], got.handle)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("producer", ids[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := consumer.Subscribe(SubSpec{ID: "s1", Filter: quoteFilter()}); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	if err := net.Kill(ids[1]); err != nil { // transit broker goes dark
		t.Fatal(err)
	}
	waitFor(t, "detector-driven repair", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) > 0
	})
	mu.Lock()
	ev := events[0]
	mu.Unlock()
	if ev.Dead != ids[1] {
		t.Fatalf("repair event for %q, want %q", ev.Dead, ids[1])
	}
	if ev.Parent != ids[0] {
		t.Fatalf("repair parent %q, want %q (lowest-ID survivor)", ev.Parent, ids[0])
	}
	if len(ev.Reattached) != 1 || ev.Reattached[0] != ids[2] {
		t.Fatalf("reattached %v, want [%s]", ev.Reattached, ids[2])
	}
	if ev.Err != nil {
		t.Fatalf("repair error: %v", ev.Err)
	}
	if ev.Done.Before(ev.Detected) {
		t.Fatal("repair Done precedes Detected")
	}

	net.Settle()
	if err := producer.Publish(stockNotif("E", 5)); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if got.len() != 1 {
		t.Fatalf("post-detection delivery missing: %d events", got.len())
	}
}

// repairLog collects repair events from WithRepairObserver.
type repairLog struct {
	mu     sync.Mutex
	events []RepairEvent
}

func (l *repairLog) add(e RepairEvent) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *repairLog) snapshot() []RepairEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]RepairEvent(nil), l.events...)
}

// TestSelfHealingNoFalsePositives: a self-healing chain under publish
// load for more than ten TTLs, with no broker killed, must see no repair.
func TestSelfHealingNoFalsePositives(t *testing.T) {
	const ttl = 20 * time.Millisecond
	var repairs repairLog
	net, ids := newChain(t, 3,
		WithSelfHealing(2*time.Millisecond, ttl),
		WithRepairObserver(repairs.add),
	)
	var got collector
	consumer, err := net.NewClient("consumer", ids[0], got.handle)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("producer", ids[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := consumer.Subscribe(SubSpec{ID: "s1", Filter: quoteFilter()}); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	published := 0
	for end := time.Now().Add(12 * ttl); time.Now().Before(end); published++ {
		if err := producer.Publish(stockNotif("A", int64(published))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	net.Settle()
	if evs := repairs.snapshot(); len(evs) != 0 {
		t.Fatalf("%d repairs with no broker killed; first: %+v", len(evs), evs[0])
	}
	if got.len() != published {
		t.Fatalf("delivered %d of %d publishes", got.len(), published)
	}
}

// TestSelfHealingWaitsForTTL: the detector declares a killed broker
// failed no sooner than the TTL after the kill.
func TestSelfHealingWaitsForTTL(t *testing.T) {
	const ttl = 40 * time.Millisecond
	var repairs repairLog
	net, ids := newChain(t, 3,
		WithSelfHealing(5*time.Millisecond, ttl),
		WithRepairObserver(repairs.add),
	)
	killed := time.Now()
	if err := net.Kill(ids[1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "detector-driven repair", func() bool { return len(repairs.snapshot()) > 0 })
	evs := repairs.snapshot()
	if len(evs) != 1 || evs[0].Dead != ids[1] {
		t.Fatalf("repairs %+v, want one for %s", evs, ids[1])
	}
	if d := evs[0].Detected.Sub(killed); d < ttl {
		t.Fatalf("detected %v after the kill, before the %v TTL", d, ttl)
	}
}

// TestKillIsolatesWithoutSelfHealing documents Kill's contract on a plain
// network: the broker dies, nothing repairs, and client calls against it
// fail closed.
func TestKillIsolatesWithoutSelfHealing(t *testing.T) {
	net, ids := newChain(t, 2)
	client, err := net.NewClient("c", ids[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Kill(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := client.Publish(stockNotif("X", 1)); err == nil {
		t.Fatal("publish to a killed broker succeeded")
	}
	if err := net.Kill("absent"); err == nil || !strings.Contains(err.Error(), "unknown broker") {
		t.Fatalf("want unknown-broker error, got %v", err)
	}
}

// TestFailNowLastBroker kills the only broker: its client is left
// detached and repair degrades gracefully.
func TestFailNowLastBroker(t *testing.T) {
	net, ids := newChain(t, 1)
	client, err := net.NewClient("c", ids[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.FailNow(ids[0]); err != nil {
		t.Fatal(err)
	}
	if at := client.At(); at != "" {
		t.Fatalf("client still attached to %q after total failure", at)
	}
	if err := client.Publish(stockNotif("X", 1)); err != ErrDetached {
		t.Fatalf("want ErrDetached, got %v", err)
	}
}
