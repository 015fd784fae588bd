package broker

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

// TestControlDataInterleaving storms a broker with publishes from several
// publisher hops while the test churns subscriptions through the control
// path, and checks the ack contract: once a Subscribe call has returned,
// every later matching publish is delivered exactly once, and once an
// Unsubscribe has returned, no later publish is delivered. Both follow
// from mailbox order alone: the run goroutine processes the control
// message before any publish queued after it.
//
// Meanwhile other goroutines read the broker's diagnostics in a loop.
// The routing tables have no lock — the run goroutine is their only owner
// — so under -race this fails if any of those reads touches a table off
// the run goroutine.
func TestControlDataInterleaving(t *testing.T) {
	b := New("hub", Options{})
	b.Start()
	defer b.Close()

	var mu sync.Mutex
	delivered := make(map[int64]int) // marker id -> count
	client := wire.ClientID("c")
	if err := b.AttachClient(client, func(d wire.Deliver) {
		if v, ok := d.Item.Notif.Get("marker"); ok {
			mu.Lock()
			delivered[v.IntVal()]++
			mu.Unlock()
		}
	}); err != nil {
		t.Fatal(err)
	}

	// Background storm: several publisher hops push matching and
	// non-matching noise (no marker attribute) concurrently with the
	// control churn below, and readers poll every diagnostic entry point.
	stop := make(chan struct{})
	var storm sync.WaitGroup
	readers := []func(){
		func() { b.Stats() },
		func() { b.SubEntries() },
		func() { b.TableSizes() },
		func() { b.Neighbors() },
	}
	for _, read := range readers {
		read := read
		storm.Add(1)
		go func() {
			defer storm.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				read()
			}
		}()
	}
	for p := 0; p < 3; p++ {
		p := p
		storm.Add(1)
		go func() {
			defer storm.Done()
			from := wire.ClientHop(wire.ClientID(fmt.Sprintf("noise%d", p)))
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := message.New(map[string]message.Value{
					"topic": message.String(fmt.Sprintf("t%d", rng.Intn(4))),
					"i":     message.Int(int64(i)),
				})
				b.Receive(transport.Inbound{From: from, Msg: wire.NewPublish(n)})
			}
		}()
	}

	marker := int64(0)
	pubMarker := func(topic string, from wire.Hop) int64 {
		marker++
		n := message.New(map[string]message.Value{
			"topic":  message.String(topic),
			"marker": message.Int(marker),
		})
		b.Receive(transport.Inbound{From: from, Msg: wire.NewPublish(n)})
		return marker
	}

	const rounds = 40
	const markersPerRound = 25
	mainHop := wire.ClientHop("main-pub")
	for round := 0; round < rounds; round++ {
		topic := fmt.Sprintf("t%d", round%4)
		subID := wire.SubID(fmt.Sprintf("s%d", round))
		f := filter.MustNew(filter.EQ("topic", message.String(topic)))
		// Subscribe ack: the control message has been processed by the
		// run loop, so every publish queued from now on is matched against
		// a table that holds it.
		if err := b.Subscribe(wire.Subscription{Filter: f, Client: client, ID: subID}); err != nil {
			t.Fatal(err)
		}
		var expect []int64
		for k := 0; k < markersPerRound; k++ {
			expect = append(expect, pubMarker(topic, mainHop))
		}
		b.Barrier()
		mu.Lock()
		for _, m := range expect {
			if delivered[m] != 1 {
				mu.Unlock()
				t.Fatalf("round %d: marker %d delivered %d times after the sub ack",
					round, m, delivered[m])
			}
		}
		mu.Unlock()

		// Unsubscribe ack: markers published afterwards must never be
		// delivered, however the storm interleaves.
		if err := b.Unsubscribe(client, subID); err != nil {
			t.Fatal(err)
		}
		var ghosts []int64
		for k := 0; k < markersPerRound; k++ {
			ghosts = append(ghosts, pubMarker(topic, mainHop))
		}
		b.Barrier()
		mu.Lock()
		for _, m := range ghosts {
			if delivered[m] != 0 {
				mu.Unlock()
				t.Fatalf("round %d: marker %d delivered after the unsub ack", round, m)
			}
		}
		mu.Unlock()
	}
	close(stop)
	storm.Wait()
	b.Barrier()
	if subs, _ := b.TableSizes(); subs != 0 {
		t.Fatalf("%d subscription entries left after every unsubscribe", subs)
	}
}
