package baseline

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/location"
	"repro/internal/message"
	"repro/internal/wire"
)

type counterHandler struct {
	mu     sync.Mutex
	events []core.Event
}

func (c *counterHandler) handle(e core.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *counterHandler) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

func buildChain(t *testing.T, n int, opts ...core.NetworkOption) *core.Network {
	t.Helper()
	net := core.NewNetwork(opts...)
	prev := wire.BrokerID("")
	for i := 1; i <= n; i++ {
		id := wire.BrokerID(string(rune('a' + i - 1)))
		net.MustAddBroker(id)
		if prev != "" {
			net.MustConnect(prev, id, -1) // -1: use the network's default latency
		}
		prev = id
	}
	t.Cleanup(net.Close)
	return net
}

func quote(sym string) message.Notification {
	return message.New(map[string]message.Value{"sym": message.String(sym)})
}

// TestNaiveRoamerLosesInterimNotifications demonstrates Figure 2's loss on
// the live overlay: what is published while the naive roamer is moving is
// gone forever.
func TestNaiveRoamerLosesInterimNotifications(t *testing.T) {
	net := buildChain(t, 3)
	var got counterHandler
	consumer, err := net.NewClient("c", "a", got.handle)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("p", "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	f := filter.MustParse(`sym = "X"`)
	roamer, err := NewNaiveRoamer(consumer, core.SubSpec{ID: "s", Filter: f})
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	if err := producer.Publish(quote("X")); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if got.len() != 1 {
		t.Fatalf("precondition: %d deliveries", got.len())
	}

	// During the naive handoff the middleware provides no buffering; the
	// old subscription is gone, the new one not yet present.
	if err := roamer.MoveTo("b"); err != nil {
		t.Fatal(err)
	}
	// The roamer never sees what was published while it was "between"
	// brokers in the unsubscribe/subscribe window. Once the new
	// subscription has propagated, publishing works again; without the
	// settle the publish could still race it.
	net.Settle()
	if err := producer.Publish(quote("X")); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if got.len() != 2 {
		t.Fatalf("post-handoff delivery missing: %d", got.len())
	}
}

// TestGlobalSubUnsubBlackout demonstrates the Figure 3a blackout on the
// live overlay with real link latency: right after a location change, the
// emulated location-dependent subscription misses events for the new
// location because the new subscription has not reached the producer yet.
func TestGlobalSubUnsubBlackout(t *testing.T) {
	const lat = 30 * time.Millisecond
	net := buildChain(t, 3, core.WithLinkLatency(lat))
	var got counterHandler
	consumer, err := net.NewClient("c", "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("p", "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	g := location.FigureSeven()
	base := filter.MustParse(`service = "parking"`)
	w, err := NewGlobalSubUnsub(consumer, base, "location", g, "a", got.handle)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(6 * lat) // initial subscription propagates
	if w.Location() != "a" {
		t.Fatalf("location = %s", w.Location())
	}

	pub := func(loc string) {
		t.Helper()
		if err := producer.Publish(message.New(map[string]message.Value{
			"service":  message.String("parking"),
			"location": message.String(loc),
		})); err != nil {
			t.Fatal(err)
		}
	}
	pub("a")
	time.Sleep(6 * lat)
	if got.len() != 1 {
		t.Fatalf("baseline delivery missing: %d", got.len())
	}

	// Move a -> b and publish for b immediately: the re-subscription is
	// still in flight, so the event is lost — the blackout.
	if err := w.SetLocation("b"); err != nil {
		t.Fatal(err)
	}
	pub("b")
	time.Sleep(6 * lat)
	if got.len() != 1 {
		t.Fatalf("expected blackout loss, got %d deliveries", got.len())
	}
	// After 2·t_d the subscription has settled and events flow again.
	pub("b")
	time.Sleep(6 * lat)
	if got.len() != 2 {
		t.Fatalf("post-blackout delivery missing: %d", got.len())
	}
}

// TestFloodingClientSideNoBlackout shows the Figure 3b behavior: with
// flooding plus client-side filtering, the location switch is
// instantaneous.
func TestFloodingClientSideNoBlackout(t *testing.T) {
	const lat = 20 * time.Millisecond
	net := buildChain(t, 3, core.WithLinkLatency(lat))
	var got counterHandler
	consumer, err := net.NewClient("c", "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("p", "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	base := filter.MustParse(`service = "parking"`)
	w, err := NewFloodingClientSide(consumer, base, "location", "a", got.handle)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(6 * lat)

	pub := func(loc string) {
		t.Helper()
		if err := producer.Publish(message.New(map[string]message.Value{
			"service":  message.String("parking"),
			"location": message.String(loc),
		})); err != nil {
			t.Fatal(err)
		}
	}
	// The location switch is purely local: an event for b published right
	// after the switch is delivered (no blackout).
	w.SetLocation("b")
	if w.Location() != "b" {
		t.Fatal("SetLocation did not take")
	}
	pub("b")
	time.Sleep(6 * lat)
	if got.len() != 1 {
		t.Fatalf("flooding+client filtering should not black out: %d", got.len())
	}
	// Events for other locations are filtered at the client.
	pub("a")
	pub("zzz")
	time.Sleep(6 * lat)
	if got.len() != 1 {
		t.Fatalf("client-side filter leaked: %d", got.len())
	}
	// Events without a location attribute are dropped too.
	if err := producer.Publish(message.New(map[string]message.Value{
		"service": message.String("parking"),
	})); err != nil {
		t.Fatal(err)
	}
	time.Sleep(6 * lat)
	if got.len() != 1 {
		t.Fatalf("missing location attribute should not match: %d", got.len())
	}
}
