package broker

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/filter"
	"repro/internal/flow"
	"repro/internal/message"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestBatchedDeliveryParity is the randomized parity test for the batched
// pipeline: a multi-broker publish workload runs through drain-all
// mailboxes, and every subscription's delivery sequence — payloads and
// sequence numbers — must be byte-identical to the one computed from the
// workload alone (parityOracle).
//
// Each subscription is pinned to a single producer (an equality constraint
// on the producer attribute), so its delivery sequence is determined by
// that producer's FIFO publish order alone: the overlay is a tree, links
// are FIFO, and brokers process in arrival order, which makes the
// per-subscription sequence independent of how publishes from different
// producers interleave into batches.
func TestBatchedDeliveryParity(t *testing.T) {
	const trials = 4
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			cfg := genParityWorkload(rand.New(rand.NewSource(0xba7c4 + int64(trial))))
			assertParity(t, "batched", runParityWorkload(t, cfg, Options{}), parityOracle(cfg))
		})
	}
}

// parityOracle computes each subscription's expected delivery sequence
// from the workload: the values its producer publishes, in order, that
// its filter matches, numbered from 1 and rendered as runParityWorkload
// records deliveries.
func parityOracle(w parityWorkload) map[string][]string {
	want := make(map[string][]string, len(w.subs))
	for s, sub := range w.subs {
		f := parityFilter(sub)
		var seqs []string
		for i, v := range w.pubVals[sub.producer] {
			n := parityNotif(sub.producer, i, v)
			if f.Matches(n) {
				seqs = append(seqs, fmt.Sprintf("seq=%d notif=%s", len(seqs)+1, n.String()))
			}
		}
		want[fmt.Sprintf("c%d/s", s)] = seqs
	}
	return want
}

// assertParity fails the test unless got and want contain the same
// subscription keys with byte-identical delivery sequences.
func assertParity(t *testing.T, mode string, got, want map[string][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: subscription sets differ: %d vs %d", mode, len(got), len(want))
	}
	for key, ws := range want {
		gs, ok := got[key]
		if !ok {
			t.Fatalf("%s: subscription %s missing", mode, key)
		}
		if len(gs) != len(ws) {
			t.Fatalf("%s: %s: %d deliveries, want %d", mode, key, len(gs), len(ws))
		}
		for i := range ws {
			if gs[i] != ws[i] {
				t.Fatalf("%s: %s: delivery %d differs\ngot:  %s\nwant: %s",
					mode, key, i, gs[i], ws[i])
			}
		}
	}
}

// TestBoundedDeliveryParity extends the parity property to bounded Block
// link windows: with a lossless policy, capacity changes scheduling but
// not content, so every subscription's delivery sequence must match the
// oracle for any window capacity.
//
// Data flows in both directions across the windows. That cannot
// deadlock: a full window stalls its sender only until the link's pump
// hands the burst to the receiver's unbounded mailbox, which never
// blocks, so the wait-for graph has no cycle.
func TestBoundedDeliveryParity(t *testing.T) {
	const trials = 3
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			cfg := genParityWorkload(rand.New(rand.NewSource(0xb0b0 + int64(trial))))
			want := parityOracle(cfg)
			for _, capacity := range []int{1, 4} {
				window := transport.WithWindow(flow.Options{Capacity: capacity, Policy: flow.Block})
				got := runParityWorkload(t, cfg, Options{}, window)
				assertParity(t, fmt.Sprintf("window%d", capacity), got, want)
			}
		})
	}
}

type parityWorkload struct {
	edges   [][2]int    // tree edges (child, parent)
	subs    []paritySub // consumer subscriptions
	pubHome []int       // producer index -> home broker
	pubVals [][]int64   // producer index -> published values, in order
}

type paritySub struct {
	home     int // broker index
	producer int // the single producer this subscription listens to
	lo, hi   int64
}

func genParityWorkload(rng *rand.Rand) parityWorkload {
	var w parityWorkload
	brokers := 3 + rng.Intn(5)
	for i := 1; i < brokers; i++ {
		w.edges = append(w.edges, [2]int{i, rng.Intn(i)})
	}
	producers := 2 + rng.Intn(3)
	for p := 0; p < producers; p++ {
		w.pubHome = append(w.pubHome, rng.Intn(brokers))
		vals := make([]int64, 150+rng.Intn(100))
		for i := range vals {
			vals[i] = int64(rng.Intn(100))
		}
		w.pubVals = append(w.pubVals, vals)
	}
	subsN := 4 + rng.Intn(6)
	for s := 0; s < subsN; s++ {
		lo := int64(rng.Intn(80))
		w.subs = append(w.subs, paritySub{
			home:     rng.Intn(brokers),
			producer: rng.Intn(producers),
			lo:       lo,
			hi:       lo + 10 + int64(rng.Intn(40)),
		})
	}
	return w
}

// parityFilter is a subscription's filter: its producer, and a value range.
func parityFilter(sub paritySub) filter.Filter {
	return filter.MustNew(
		filter.EQ("prod", message.String(fmt.Sprintf("p%d", sub.producer))),
		filter.Range("val", message.Int(sub.lo), message.Int(sub.hi)),
	)
}

// parityNotif is the i-th notification producer p publishes, carrying v.
func parityNotif(p, i int, v int64) message.Notification {
	return message.New(map[string]message.Value{
		"prod": message.String(fmt.Sprintf("p%d", p)),
		"val":  message.Int(v),
		"i":    message.Int(int64(i)),
	})
}

// runParityWorkload builds the overlay, runs the workload, and returns the
// rendered delivery sequence per subscription key.
func runParityWorkload(t *testing.T, w parityWorkload, opts Options, pipeOpts ...transport.PipeOption) map[string][]string {
	t.Helper()
	brokers := make([]*Broker, 0)
	ensure := func(i int) *Broker {
		for len(brokers) <= i {
			b := New(wire.BrokerID(fmt.Sprintf("b%d", len(brokers))), opts)
			b.Start()
			t.Cleanup(b.Close)
			brokers = append(brokers, b)
		}
		return brokers[i]
	}
	ensure(0)
	links := make([]*transport.ChanLink, 0)
	for _, e := range w.edges {
		a, b := ensure(e[0]), ensure(e[1])
		la, lb := transport.Pipe(wire.BrokerHop(a.ID()), wire.BrokerHop(b.ID()), a, b, pipeOpts...)
		links = append(links, la, lb)
		if err := a.AddLink(b.ID(), la); err != nil {
			t.Fatal(err)
		}
		if err := b.AddLink(a.ID(), lb); err != nil {
			t.Fatal(err)
		}
	}
	// Windowed pipes deliver asynchronously, so each settle round must
	// also wait for the pumps to quiesce — and a hop can cost two rounds
	// (one to flush into the pump, one to process after delivery), so the
	// loop runs twice as long as the synchronous bound.
	settle := func() {
		for i := 0; i < 2*len(brokers)+2; i++ {
			for _, b := range brokers {
				b.Barrier()
			}
			for _, l := range links {
				l.WaitIdle()
			}
		}
	}

	var mu sync.Mutex
	got := make(map[string][]string)
	record := func(d wire.Deliver) {
		mu.Lock()
		defer mu.Unlock()
		key := string(d.Client) + "/" + string(d.ID)
		got[key] = append(got[key], fmt.Sprintf("seq=%d notif=%s", d.Item.Seq, d.Item.Notif.String()))
	}

	for s, sub := range w.subs {
		client := wire.ClientID(fmt.Sprintf("c%d", s))
		if err := brokers[sub.home].AttachClient(client, record); err != nil {
			t.Fatal(err)
		}
		err := brokers[sub.home].Subscribe(wire.Subscription{
			Filter: parityFilter(sub), Client: client, ID: "s",
		})
		if err != nil {
			t.Fatal(err)
		}
		// Ensure every subscription key exists even with zero deliveries.
		got[string(client)+"/s"] = nil
	}
	settle()

	// Producers publish concurrently so the batched run actually builds
	// multi-message batches.
	var wg sync.WaitGroup
	for p, vals := range w.pubVals {
		p, vals := p, vals
		wg.Add(1)
		go func() {
			defer wg.Done()
			home := brokers[w.pubHome[p]]
			from := wire.ClientHop(wire.ClientID(fmt.Sprintf("p%d", p)))
			for i, v := range vals {
				home.Receive(transport.Inbound{From: from, Msg: wire.NewPublish(parityNotif(p, i, v))})
			}
		}()
	}
	wg.Wait()
	settle()

	mu.Lock()
	defer mu.Unlock()
	return got
}
