package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/filter"
	"repro/internal/location"
	"repro/internal/routing"
	"repro/internal/wire"
)

// TestRepairEquivalenceProperty is the repair-path soundness property of
// the elastic federation layer: crashing a transit broker and repairing
// the overlay (RemoveLink retraction + AddLink reseed through the
// Forwarder.Recompute oracle and the advertisement / per-client
// re-offers) must leave every surviving broker with exactly the routing
// table it would have if the post-repair topology had been built from
// scratch — for all five routing strategies, under random trees and
// random subscription placement. A trailing functional check publishes
// through both networks and compares per-consumer delivery sets, so
// over-subscription that tables alone would miss still fails the test.
func TestRepairEquivalenceProperty(t *testing.T) {
	for _, strat := range routing.Strategies() {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 4; seed++ {
				runRepairEquivalence(t, strat, seed)
			}
		})
	}
}

// repairFixture describes one randomized scenario: a tree, client
// placements, and the victim broker.
type repairFixture struct {
	brokers []wire.BrokerID
	parent  map[wire.BrokerID]wire.BrokerID // tree edges (child -> parent)
	victim  wire.BrokerID

	producerAt wire.BrokerID
	advertise  bool
	consumers  []repairConsumer
}

type repairConsumer struct {
	id     wire.ClientID
	at     wire.BrokerID
	sub    SubSpec
	events *collector
}

func buildRepairFixture(rng *rand.Rand, seed int64) *repairFixture {
	fx := &repairFixture{parent: make(map[wire.BrokerID]wire.BrokerID)}
	n := 6 + rng.Intn(4)
	for i := 0; i < n; i++ {
		id := wire.BrokerID(fmt.Sprintf("b%02d", i+1))
		fx.brokers = append(fx.brokers, id)
		if i > 0 {
			fx.parent[id] = fx.brokers[rng.Intn(i)]
		}
	}
	fx.victim = fx.brokers[rng.Intn(n)]
	fx.advertise = rng.Intn(2) == 0

	survivors := make([]wire.BrokerID, 0, n-1)
	for _, id := range fx.brokers {
		if id != fx.victim {
			survivors = append(survivors, id)
		}
	}
	pick := func() wire.BrokerID { return survivors[rng.Intn(len(survivors))] }
	fx.producerAt = pick()
	pool := []string{
		`type = "quote"`,
		`sym = "A"`,
		`sym = "B"`,
		`type = "quote" && sym = "A"`,
	}
	consumers := 2 + rng.Intn(3)
	for i := 0; i < consumers; i++ {
		fx.consumers = append(fx.consumers, repairConsumer{
			id: wire.ClientID(fmt.Sprintf("c%d", i+1)),
			at: pick(),
			sub: SubSpec{
				ID:     wire.SubID(fmt.Sprintf("s%d", i+1)),
				Filter: filter.MustParse(pool[rng.Intn(len(pool))]),
				Mobile: rng.Intn(2) == 0,
			},
			events: &collector{},
		})
	}
	// One location-dependent consumer, drawn after the others so the
	// earlier draws (and with them each seed's tree and placements) stay
	// as they were.
	fx.consumers = append(fx.consumers, repairConsumer{
		id: wire.ClientID(fmt.Sprintf("c%d", consumers+1)),
		at: pick(),
		sub: SubSpec{
			ID:     wire.SubID(fmt.Sprintf("s%d", consumers+1)),
			Filter: filter.MustParse(`type = "quote" && sym = "$myloc"`),
			Loc:    &LocSpec{Graph: repairGraph, Attr: "sym", Start: "A"},
		},
		events: &collector{},
	})
	_ = seed
	return fx
}

// repairGraph names the movement graph of the fixture's location-dependent
// consumer; populate registers it.
const repairGraph = "abc"

// populate attaches the fixture's clients and subscriptions to a network.
func (fx *repairFixture) populate(t *testing.T, net *Network) (producer *Client) {
	t.Helper()
	if err := net.RegisterGraph(repairGraph, location.Complete("A", "B", "C")); err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("producer", fx.producerAt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fx.advertise {
		if err := producer.Advertise("adv", filter.MustParse(`type = "quote"`)); err != nil {
			t.Fatal(err)
		}
		net.Settle()
	}
	for i := range fx.consumers {
		c := &fx.consumers[i]
		cl, err := net.NewClient(c.id, c.at, c.events.handle)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Subscribe(c.sub); err != nil {
			t.Fatal(err)
		}
	}
	net.Settle()
	return producer
}

// tables snapshots every broker's subscription table as sorted strings.
func tables(net *Network, brokers []wire.BrokerID) map[wire.BrokerID][]string {
	out := make(map[wire.BrokerID][]string, len(brokers))
	for _, id := range brokers {
		b, err := net.Broker(id)
		if err != nil {
			continue
		}
		var rows []string
		for _, e := range b.SubEntries() {
			rows = append(rows, fmt.Sprintf("%s|%s|%s|%s", e.Filter.ID(), e.Hop, e.Client, e.SubID))
		}
		sort.Strings(rows)
		out[id] = rows
	}
	return out
}

func runRepairEquivalence(t *testing.T, strat routing.Strategy, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*31 + 7))
	fx := buildRepairFixture(rng, seed)

	// Network A: full tree, then crash + repair.
	netA := NewNetwork(WithStrategy(strat))
	defer netA.Close()
	for _, id := range fx.brokers {
		netA.MustAddBroker(id)
	}
	for child, parent := range fx.parent {
		netA.MustConnect(child, parent, 0)
	}
	prodA := fx.populate(t, netA)
	if err := netA.FailNow(fx.victim); err != nil {
		t.Fatal(err)
	}
	netA.Settle()

	// The repaired topology, straight from the network's edge map.
	netA.mu.Lock()
	repaired := make(map[wire.BrokerID][]wire.BrokerID, len(netA.edges))
	for id, nbs := range netA.edges {
		repaired[id] = append([]wire.BrokerID(nil), nbs...)
	}
	netA.mu.Unlock()

	// Network B: the surviving topology built from scratch.
	netB := NewNetwork(WithStrategy(strat))
	defer netB.Close()
	survivors := make([]wire.BrokerID, 0, len(fx.brokers)-1)
	for _, id := range fx.brokers {
		if id != fx.victim {
			survivors = append(survivors, id)
			netB.MustAddBroker(id)
		}
	}
	type edge struct{ a, b wire.BrokerID }
	var edges []edge
	for a, nbs := range repaired {
		for _, b := range nbs {
			if a < b {
				edges = append(edges, edge{a, b})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	for _, e := range edges {
		netB.MustConnect(e.a, e.b, 0)
	}
	// Fresh collectors for network B so delivery sets can be compared.
	fxB := *fx
	fxB.consumers = append([]repairConsumer(nil), fx.consumers...)
	for i := range fxB.consumers {
		fxB.consumers[i].events = &collector{}
	}
	prodB := fxB.populate(t, netB)

	// Property 1: identical routing tables on every survivor.
	gotTables := tables(netA, survivors)
	wantTables := tables(netB, survivors)
	for _, id := range survivors {
		got, want := gotTables[id], wantTables[id]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("strategy %s seed %d: table mismatch at %s after repair of %s\n repaired:     %v\n from-scratch: %v",
				strat, seed, id, fx.victim, got, want)
		}
	}

	// Property 2: identical delivery sets for fresh publishes.
	preA := make([]int, len(fx.consumers))
	for i := range fx.consumers {
		preA[i] = fx.consumers[i].events.len()
	}
	for _, sym := range []string{"A", "B", "C"} {
		if err := prodA.Publish(stockNotif(sym, 1)); err != nil {
			t.Fatal(err)
		}
		if err := prodB.Publish(stockNotif(sym, 1)); err != nil {
			t.Fatal(err)
		}
	}
	netA.Settle()
	netB.Settle()
	for i := range fx.consumers {
		var gotSyms, wantSyms []string
		for _, e := range fx.consumers[i].events.snapshot()[preA[i]:] {
			s, _ := e.Notification.Get("sym")
			gotSyms = append(gotSyms, s.String())
		}
		for _, e := range fxB.consumers[i].events.snapshot() {
			s, _ := e.Notification.Get("sym")
			wantSyms = append(wantSyms, s.String())
		}
		sort.Strings(gotSyms)
		sort.Strings(wantSyms)
		if fmt.Sprint(gotSyms) != fmt.Sprint(wantSyms) {
			t.Fatalf("strategy %s seed %d: delivery mismatch for %s\n repaired:     %v\n from-scratch: %v",
				strat, seed, fx.consumers[i].id, gotSyms, wantSyms)
		}
	}
}
