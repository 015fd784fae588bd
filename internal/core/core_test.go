package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/location"
	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/wire"
)

// collector gathers delivered events for assertions.
type collector struct {
	mu     sync.Mutex
	events []Event
}

func (c *collector) handle(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *collector) snapshot() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func stockNotif(sym string, price int64) message.Notification {
	return message.New(map[string]message.Value{
		"type":  message.String("quote"),
		"sym":   message.String(sym),
		"price": message.Int(price),
	})
}

// newChain builds a linear overlay b1 - b2 - ... - bn.
func newChain(t *testing.T, n int, opts ...NetworkOption) (*Network, []wire.BrokerID) {
	t.Helper()
	net := NewNetwork(opts...)
	ids := make([]wire.BrokerID, n)
	for i := 0; i < n; i++ {
		ids[i] = wire.BrokerID(fmt.Sprintf("b%d", i+1))
		net.MustAddBroker(ids[i])
	}
	for i := 0; i+1 < n; i++ {
		net.MustConnect(ids[i], ids[i+1], 0)
	}
	t.Cleanup(net.Close)
	return net, ids
}

func TestPlainPubSubAcrossChain(t *testing.T) {
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

	f := filter.MustParse(`type = "quote" && sym = "ACME"`)
	if err := consumer.Subscribe(SubSpec{ID: "s1", Filter: f}); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	if err := producer.Publish(stockNotif("ACME", 101)); err != nil {
		t.Fatal(err)
	}
	if err := producer.Publish(stockNotif("OTHER", 55)); err != nil {
		t.Fatal(err)
	}
	if err := producer.Publish(stockNotif("ACME", 102)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "2 deliveries", func() bool { return got.len() == 2 })

	evs := got.snapshot()
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("bad sequence numbers: %+v", evs)
	}
	for _, e := range evs {
		sym, _ := e.Notification.Get("sym")
		if sym.Str() != "ACME" {
			t.Fatalf("wrong notification delivered: %s", e.Notification)
		}
	}
}

func TestPlainPubSubAllStrategies(t *testing.T) {
	for _, s := range []routing.Strategy{
		routing.Flooding, routing.Simple, routing.Identity, routing.Covering, routing.Merging,
	} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			net, ids := newChain(t, 3, WithStrategy(s))
			var got collector
			consumer, err := net.NewClient("c", ids[0], got.handle)
			if err != nil {
				t.Fatal(err)
			}
			producer, err := net.NewClient("p", ids[2], nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := consumer.Subscribe(SubSpec{
				ID:     "s1",
				Filter: filter.MustParse(`sym = "ACME"`),
			}); err != nil {
				t.Fatal(err)
			}
			net.Settle()
			if err := producer.Publish(stockNotif("ACME", 1)); err != nil {
				t.Fatal(err)
			}
			if err := producer.Publish(stockNotif("NOPE", 2)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "1 delivery", func() bool { return got.len() >= 1 })
			net.Settle()
			if got.len() != 1 {
				t.Fatalf("strategy %s: got %d deliveries, want 1", s, got.len())
			}
		})
	}
}

// TestMobileRelocationNoLossNoDup reproduces the Figure 5 scenario: a
// mobile consumer detaches, notifications keep flowing, the consumer
// reattaches at a distant broker, and the relocation protocol delivers
// everything exactly once in order.
// TestIDCollidingSubscriptionsBothRouted holds two subscriptions whose
// filters render to one ID — x in {"a,s:b"} and x in {"a", "b"} — at one
// broker, and publishes at the other: each notification must reach the
// subscriber whose filter it matches, so the first broker must have
// forwarded both filters, not one for the shared ID.
func TestIDCollidingSubscriptionsBothRouted(t *testing.T) {
	for _, s := range []routing.Strategy{routing.Simple, routing.Identity, routing.Covering, routing.Merging} {
		t.Run(s.String(), func(t *testing.T) {
			net, ids := newChain(t, 2, WithStrategy(s))
			var gotOne, gotTwo collector
			one, err := net.NewClient("one", ids[0], gotOne.handle)
			if err != nil {
				t.Fatal(err)
			}
			two, err := net.NewClient("two", ids[0], gotTwo.handle)
			if err != nil {
				t.Fatal(err)
			}
			fOne := filter.MustNew(filter.In("x", message.String("a,s:b")))
			fTwo := filter.MustNew(filter.In("x", message.String("a"), message.String("b")))
			if fOne.ID() != fTwo.ID() {
				t.Fatalf("IDs differ: %s / %s", fOne.ID(), fTwo.ID())
			}
			if err := one.Subscribe(SubSpec{ID: "s", Filter: fOne}); err != nil {
				t.Fatal(err)
			}
			if err := two.Subscribe(SubSpec{ID: "s", Filter: fTwo}); err != nil {
				t.Fatal(err)
			}
			net.Settle()
			producer, err := net.NewClient("producer", ids[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []string{"b", "a,s:b"} {
				n := message.New(map[string]message.Value{"x": message.String(x)})
				if err := producer.Publish(n); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "one delivery to each subscriber", func() bool { return gotOne.len() == 1 && gotTwo.len() == 1 })
			net.Settle()
			for _, c := range []struct {
				name string
				got  *collector
				want string
			}{{"one", &gotOne, "a,s:b"}, {"two", &gotTwo, "b"}} {
				evs := c.got.snapshot()
				if x, _ := evs[0].Notification.Get("x"); len(evs) != 1 || x.Str() != c.want {
					t.Errorf("%s received %v, want only x = %q", c.name, evs, c.want)
				}
			}
		})
	}
}

func TestMobileRelocationNoLossNoDup(t *testing.T) {
	// Topology (tree):     b2 - b3 - b4
	//                     /           \
	//                   b1             b6   with producer at b3's side: b5-b3
	net := NewNetwork()
	for _, id := range []string{"b1", "b2", "b3", "b4", "b5", "b6"} {
		net.MustAddBroker(wire.BrokerID(id))
	}
	net.MustConnect("b1", "b2", 0)
	net.MustConnect("b2", "b3", 0)
	net.MustConnect("b3", "b4", 0)
	net.MustConnect("b4", "b6", 0)
	net.MustConnect("b3", "b5", 0)
	t.Cleanup(net.Close)

	var got collector
	consumer, err := net.NewClient("C", "b6", got.handle)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("P", "b5", nil)
	if err != nil {
		t.Fatal(err)
	}
	f := filter.MustParse(`sym = "ACME"`)
	if err := producer.Advertise("adv", f); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if err := consumer.Subscribe(SubSpec{ID: "s", Filter: f, Mobile: true}); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	// Phase 1: connected at b6.
	for i := int64(1); i <= 3; i++ {
		if err := producer.Publish(stockNotif("ACME", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "phase-1 deliveries", func() bool { return got.len() == 3 })

	// Phase 2: disconnected; the virtual counterpart at b6 buffers.
	if err := consumer.Detach(); err != nil {
		t.Fatal(err)
	}
	for i := int64(4); i <= 7; i++ {
		if err := producer.Publish(stockNotif("ACME", i)); err != nil {
			t.Fatal(err)
		}
	}
	net.Settle()

	// Phase 3: reattach at b1; relocation must replay 4..7.
	if err := consumer.MoveTo("b1"); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	for i := int64(8); i <= 10; i++ {
		if err := producer.Publish(stockNotif("ACME", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all 10 deliveries", func() bool { return got.len() == 10 })
	net.Settle()

	evs := got.snapshot()
	if len(evs) != 10 {
		t.Fatalf("got %d deliveries, want exactly 10 (no duplicates)", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d (order/gap violation): %+v", i, e.Seq, evs)
		}
		price, _ := e.Notification.Get("price")
		if price.IntVal() != int64(i+1) {
			t.Fatalf("delivery %d carries price %d, want %d", i, price.IntVal(), i+1)
		}
	}
	// The replayed batch is exactly the disconnected-phase traffic.
	for i, e := range evs {
		wantReplay := i >= 3 && i <= 6
		if e.Replayed != wantReplay {
			t.Logf("note: event %d replayed=%v (informational)", i, e.Replayed)
		}
	}
}

// TestLocationDependentSubscription exercises logical mobility on the
// Figure 7 movement graph: the consumer roams a → b → d and receives
// exactly the notifications for its current location, with no blackout.
func TestLocationDependentSubscription(t *testing.T) {
	net, ids := newChain(t, 3, WithProcDelay(50*time.Millisecond))
	if err := net.RegisterGraph("fig7", location.FigureSeven()); err != nil {
		t.Fatal(err)
	}

	var got collector
	consumer, err := net.NewClient("car", ids[0], got.handle)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("city", ids[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	advFilter := filter.MustParse(`service = "parking"`)
	if err := producer.Advertise("adv", advFilter); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	base := filter.MustNew(
		filter.EQ("service", message.String("parking")),
		filter.EQ("location", message.String("$myloc")),
	)
	err = consumer.Subscribe(SubSpec{
		ID:     "park",
		Filter: base,
		Loc:    &LocSpec{Graph: "fig7", Attr: "location", Start: "a", Delta: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	pub := func(loc string) {
		t.Helper()
		n := message.New(map[string]message.Value{
			"service":  message.String("parking"),
			"location": message.String(loc),
		})
		if err := producer.Publish(n); err != nil {
			t.Fatal(err)
		}
	}

	// At location a: only "a" events are delivered.
	pub("a")
	pub("b")
	pub("d")
	waitFor(t, "first delivery", func() bool { return got.len() == 1 })
	net.Settle()
	if got.len() != 1 {
		t.Fatalf("at location a: %d deliveries, want 1", got.len())
	}

	// Move a → b: the client-side filter switches instantly.
	if err := consumer.SetLocation("park", "b"); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	pub("b")
	pub("a")
	waitFor(t, "second delivery", func() bool { return got.len() == 2 })
	net.Settle()
	if got.len() != 2 {
		t.Fatalf("at location b: %d deliveries, want 2", got.len())
	}

	// Illegal move b → c (not adjacent in Figure 7) must be rejected.
	if err := consumer.SetLocation("park", "c"); err == nil {
		t.Fatal("move b->c should be rejected by the movement graph")
	}

	// Move b → d.
	if err := consumer.SetLocation("park", "d"); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	pub("d")
	waitFor(t, "third delivery", func() bool { return got.len() == 3 })

	evs := got.snapshot()
	wantLocs := []string{"a", "b", "d"}
	for i, e := range evs {
		loc, _ := e.Notification.Get("location")
		if loc.Str() != wantLocs[i] {
			t.Fatalf("delivery %d at location %s, want %s", i, loc.Str(), wantLocs[i])
		}
	}
}
