package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/location"
	"repro/internal/message"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestTopologyBuilders checks the convenience constructors.
func TestTopologyBuilders(t *testing.T) {
	net := NewNetwork()
	t.Cleanup(net.Close)

	chain, err := net.BuildChain("c", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 4 || chain[0] != "c1" || chain[3] != "c4" {
		t.Errorf("chain = %v", chain)
	}
	hub, leaves, err := net.BuildStar("s", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hub != "s-hub" || len(leaves) != 3 {
		t.Errorf("star = %v, %v", hub, leaves)
	}
	tree, err := net.BuildBinaryTree("t", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree) != 7 {
		t.Errorf("tree has %d brokers", len(tree))
	}
	if got := TreeLeaves(tree, 2); len(got) != 4 || got[0] != "t3" {
		t.Errorf("leaves = %v", got)
	}
	if _, err := net.BuildChain("c", 0, 0); err == nil {
		t.Error("empty chain should fail")
	}
	if _, err := net.BuildBinaryTree("t", -1, 0); err == nil {
		t.Error("negative depth should fail")
	}
	// Names collide with existing brokers: must fail cleanly.
	if _, err := net.BuildChain("c", 2, 0); err == nil {
		t.Error("duplicate chain should fail")
	}
}

// roamingCase shapes one TestRandomizedRoamingExactlyOnce workload: each
// round publishes a burst, optionally detaches the consumer and publishes
// another, moves it to a random broker and publishes a third. A burst is
// min + rng.Intn(spread) publishes.
type roamingCase struct {
	name                    string
	seeds                   []int64
	rounds                  int
	before, detached, after [2]int // {min, spread} of each round's bursts
	noise                   bool   // run the link-level noise storm
}

// TestRandomizedRoamingExactlyOnce is a seeded stress test of the
// relocation protocol: a mobile consumer performs a random sequence of
// detach / publish / move cycles over a random tree; delivery must stay
// exactly-once, gapless, and in publish order throughout.
//
// The "bursts" case publishes bursts large enough that relay brokers
// build multi-publish batches, while two goroutines inject non-matching
// publishes straight into broker mailboxes, so the relocation control
// flow interleaves with publish bursts on the same brokers. It holds
// because every broker handles its mailbox in order on one goroutine and
// flushes its outbox before any control closure runs.
func TestRandomizedRoamingExactlyOnce(t *testing.T) {
	for _, c := range []roamingCase{
		{seeds: []int64{1, 7, 42, 1234}, rounds: 12,
			before: [2]int{0, 4}, detached: [2]int{0, 5}, after: [2]int{0, 3}},
		{name: "bursts", seeds: []int64{3, 11, 77}, rounds: 8,
			before: [2]int{40, 60}, detached: [2]int{30, 40}, after: [2]int{20, 30}, noise: true},
	} {
		c := c
		runSeeds := func(t *testing.T) {
			seeds := c.seeds
			if testing.Short() {
				seeds = seeds[:1]
			}
			for _, seed := range seeds {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runRoaming(t, c, seed) })
			}
		}
		if c.name == "" {
			runSeeds(t)
		} else {
			t.Run(c.name, runSeeds)
		}
	}
}

func runRoaming(t *testing.T, c roamingCase, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	net := NewNetwork()
	t.Cleanup(net.Close)

	// Random tree over 8 brokers: parent of i is a random earlier broker.
	ids := make([]wire.BrokerID, 8)
	for i := range ids {
		ids[i] = wire.BrokerID(fmt.Sprintf("b%d", i))
		net.MustAddBroker(ids[i])
		if i > 0 {
			net.MustConnect(ids[rng.Intn(i)], ids[i], 0)
		}
	}

	var got collector
	consumer, err := net.NewClient("C", ids[rng.Intn(len(ids))], got.handle)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("P", ids[rng.Intn(len(ids))], nil)
	if err != nil {
		t.Fatal(err)
	}
	f := filter.MustParse(`k = "v"`)
	if err := producer.Advertise("adv", f); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if err := consumer.Subscribe(SubSpec{ID: "s", Filter: f, Mobile: true}); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	if c.noise {
		// Link-level noise storm: non-matching publishes injected straight
		// into broker mailboxes from fake client hops, fast enough to form
		// multi-publish batches. The noise matches no subscription and
		// cannot perturb the exactly-once accounting.
		stop := make(chan struct{})
		var storm sync.WaitGroup
		for s := 0; s < 2; s++ {
			s := s
			storm.Add(1)
			go func() {
				defer storm.Done()
				rr := rand.New(rand.NewSource(seed*100 + int64(s)))
				from := wire.ClientHop(wire.ClientID(fmt.Sprintf("noise%d", s)))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					b, err := net.Broker(ids[rr.Intn(len(ids))])
					if err != nil {
						return
					}
					n := message.New(map[string]message.Value{
						"k": message.String("noise"),
						"i": message.Int(int64(i)),
					})
					b.Receive(transport.Inbound{From: from, Msg: wire.NewPublish(n)})
				}
			}()
		}
		defer func() {
			close(stop)
			storm.Wait()
		}()
	}

	published := int64(0)
	pub := func(burst [2]int) {
		k := burst[0] + rng.Intn(burst[1])
		for i := 0; i < k; i++ {
			published++
			err := producer.Publish(message.New(map[string]message.Value{
				"k": message.String("v"),
				"n": message.Int(published),
			}))
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	for round := 0; round < c.rounds; round++ {
		pub(c.before)
		net.Settle()
		if rng.Intn(2) == 0 {
			if err := consumer.Detach(); err != nil {
				t.Fatal(err)
			}
			pub(c.detached)
			net.Settle()
		}
		target := ids[rng.Intn(len(ids))]
		if consumer.At() == target && consumer.At() != "" {
			// MoveTo the same broker while attached is a detach +
			// reattach; exercise it occasionally via Detach first.
			if err := consumer.Detach(); err != nil {
				t.Fatal(err)
			}
		}
		if err := consumer.MoveTo(target); err != nil {
			t.Fatal(err)
		}
		net.Settle()
		pub(c.after)
		net.Settle()
	}
	net.Settle()

	evs := got.snapshot()
	if int64(len(evs)) != published {
		t.Fatalf("delivered %d of %d published", len(evs), published)
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq gap at %d: %d", i, e.Seq)
		}
		v, _ := e.Notification.Get("n")
		if v.IntVal() != int64(i+1) {
			t.Fatalf("order violated at %d: payload %d", i, v.IntVal())
		}
	}
}

// TestRandomizedLogicalMobility walks a random itinerary on a grid and
// checks per-epoch delivery correctness (every published notification for
// the consumer's settled location arrives; others don't).
func TestRandomizedLogicalMobility(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	net := NewNetwork(WithProcDelay(time.Hour)) // maximal widening
	t.Cleanup(net.Close)
	ids, err := net.BuildChain("b", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	grid := location.Grid(4, 4)
	if err := net.RegisterGraph("grid", grid); err != nil {
		t.Fatal(err)
	}

	var got collector
	consumer, err := net.NewClient("C", ids[0], got.handle)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("P", ids[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := producer.Advertise("adv", filter.MustParse(`svc = "s"`)); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	start := location.GridName(0, 0)
	base := filter.MustNew(
		filter.EQ("svc", message.String("s")),
		filter.EQ("loc", message.String("$myloc")),
	)
	err = consumer.Subscribe(SubSpec{
		ID: "s", Filter: base,
		Loc: &LocSpec{Graph: "grid", Attr: "loc", Start: start, Delta: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	itinerary := location.RandomWalk(grid, start, 10, rng.Intn)
	var want []location.Location
	cur := start
	seq := 0
	for step, loc := range itinerary {
		if step > 0 && loc != cur {
			if err := consumer.SetLocation("s", loc); err != nil {
				t.Fatal(err)
			}
			cur = loc
			net.Settle()
		}
		// Publish for the current cell and two random other cells.
		cells := []location.Location{cur}
		all := grid.Locations()
		for k := 0; k < 2; k++ {
			cells = append(cells, all[rng.Intn(len(all))])
		}
		for _, cell := range cells {
			seq++
			err := producer.Publish(message.New(map[string]message.Value{
				"svc": message.String("s"),
				"loc": message.String(string(cell)),
				"i":   message.Int(int64(seq)),
			}))
			if err != nil {
				t.Fatal(err)
			}
			if cell == cur {
				want = append(want, cell)
			}
		}
		net.Settle()
	}

	evs := got.snapshot()
	if len(evs) != len(want) {
		t.Fatalf("delivered %d, want %d", len(evs), len(want))
	}
	for i, e := range evs {
		l, _ := e.Notification.Get("loc")
		if location.Location(l.Str()) != want[i] {
			t.Fatalf("delivery %d for %s, want %s", i, l.Str(), want[i])
		}
	}
}

// TestDynamicFilterGeneralization exercises the "dynamic filters"
// generalization sketched in the paper's conclusion: a subscription that
// depends on a function of the client's local state rather than a
// geographic location. The location machinery is state-agnostic — here
// the "movement graph" is a budget ladder and the consumer subscribes to
// "sales I can still afford", adapting as its budget changes one band at
// a time.
func TestDynamicFilterGeneralization(t *testing.T) {
	net := NewNetwork(WithProcDelay(time.Hour))
	t.Cleanup(net.Close)
	ids, err := net.BuildChain("b", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// State graph: budget bands 0 … 4, adjacent bands reachable.
	bands := location.Line(5) // l0 … l4
	if err := net.RegisterGraph("budget", bands); err != nil {
		t.Fatal(err)
	}

	var got collector
	consumer, err := net.NewClient("shopper", ids[0], got.handle)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := net.NewClient("shop", ids[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := producer.Advertise("adv", filter.MustParse(`type = "sale"`)); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	base := filter.MustNew(
		filter.EQ("type", message.String("sale")),
		filter.EQ("band", message.String("$myloc")),
	)
	err = consumer.Subscribe(SubSpec{
		ID: "sales", Filter: base,
		Loc: &LocSpec{Graph: "budget", Attr: "band", Start: "l1", Delta: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	sale := func(band string) {
		t.Helper()
		if err := producer.Publish(message.New(map[string]message.Value{
			"type": message.String("sale"),
			"band": message.String(band),
		})); err != nil {
			t.Fatal(err)
		}
	}
	sale("l1") // affordable now
	sale("l3") // out of reach
	net.Settle()
	if got.len() != 1 {
		t.Fatalf("band l1: %d deliveries", got.len())
	}
	// Payday: budget moves up one band; the filter follows instantly.
	if err := consumer.SetLocation("sales", "l2"); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	sale("l2")
	sale("l1")
	net.Settle()
	if got.len() != 2 {
		t.Fatalf("band l2: %d deliveries, want 2", got.len())
	}
	// Jumping two bands at once violates the state-change restriction.
	if err := consumer.SetLocation("sales", "l4"); err == nil {
		t.Fatal("two-band jump should be rejected")
	}
}
