package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestEgressRoamingExactlyOnce re-runs the randomized relocation stress
// workload on a network whose brokers write links from sharded egress
// writers (EgressWriters 2), with publish bursts large enough that relay
// brokers build multi-publish batches. The exactly-once contract — no
// lost, duplicated, or reordered notification across any sequence of
// detaches and relocations — must hold bit-for-bit, exactly as with inline
// writes: relocation control messages serialize through each broker's run
// loop, and the egress drain barrier puts every earlier send on the wire
// before they run.
func TestEgressRoamingExactlyOnce(t *testing.T) {
	seeds := []int64{3, 11, 77}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			net := NewNetwork(WithEgressWriters(2))
			t.Cleanup(net.Close)

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

			// Link-level noise storm: non-matching publishes injected
			// straight into broker mailboxes from fake client hops, fast
			// enough to form multi-publish batches, so the relocation
			// control flow below is interleaved with publish bursts on
			// the same brokers. The noise matches no subscription and
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

			published := int64(0)
			pub := func(k int) {
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

			for round := 0; round < 8; round++ {
				// Bursts large enough to fill multi-publish batches on the
				// relaying brokers.
				pub(40 + rng.Intn(60))
				net.Settle()
				if rng.Intn(2) == 0 {
					if err := consumer.Detach(); err != nil {
						t.Fatal(err)
					}
					pub(30 + rng.Intn(40))
					net.Settle()
				}
				target := ids[rng.Intn(len(ids))]
				if consumer.At() == target && consumer.At() != "" {
					if err := consumer.Detach(); err != nil {
						t.Fatal(err)
					}
				}
				if err := consumer.MoveTo(target); err != nil {
					t.Fatal(err)
				}
				net.Settle()
				pub(20 + rng.Intn(30))
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

			// At least one broker must actually have written through its
			// egress writers during the workload.
			var flushes uint64
			for _, id := range ids {
				b, err := net.Broker(id)
				if err != nil {
					t.Fatal(err)
				}
				flushes += b.Stats().EgressFlushes
			}
			if flushes == 0 {
				t.Fatal("no broker wrote a link burst through its egress writers")
			}
		})
	}
}
