package broker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/flow"
	"repro/internal/message"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestBackpressureStalledLeaf is the adversarial flow-control scenario: a
// hub fans out to several leaves over Block windows, and one leaf stops
// consuming mid-stream. The healthy leaves sit behind lossless Block
// windows, so they must receive every notification; the stalled leaf has
// a bounded mailbox, so it sheds there and the hub never blocks on it —
// its mailbox depth stays bounded by the capacity and every shed
// notification is visible in the leaf's flow stats. Once the leaf
// resumes, delivered plus shed must account for exactly the published
// count.
func TestBackpressureStalledLeaf(t *testing.T) {
	const (
		leaves = 4
		pubN   = 1500
		window = 64
	)

	hub := New("hub", Options{})
	hub.Start()
	t.Cleanup(hub.Close)

	gate := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }

	var delivered [leaves]atomic.Int64
	leafBrokers := make([]*Broker, leaves)
	links := make([]*transport.ChanLink, 0, 2*leaves)
	for i := 0; i < leaves; i++ {
		i := i
		var opts Options
		if i == 0 {
			// The adversarial leaf: overflow sheds at its mailbox
			// instead of wedging the hub's window.
			opts.MailboxCapacity = window
		}
		leaf := New(wire.BrokerID(fmt.Sprintf("l%d", i)), opts)
		leaf.Start()
		t.Cleanup(leaf.Close)
		leafBrokers[i] = leaf

		lh, ll := transport.Pipe(
			wire.BrokerHop(hub.ID()), wire.BrokerHop(leaf.ID()),
			hub, leaf, transport.WithWindow(flow.Options{Capacity: window, Policy: flow.Block}))
		links = append(links, lh, ll)
		if err := hub.AddLink(leaf.ID(), lh); err != nil {
			t.Fatal(err)
		}
		if err := leaf.AddLink(hub.ID(), ll); err != nil {
			t.Fatal(err)
		}

		deliver := func(wire.Deliver) { delivered[i].Add(1) }
		if i == 0 {
			deliver = func(wire.Deliver) {
				<-gate
				delivered[i].Add(1)
			}
		}
		client := wire.ClientID(fmt.Sprintf("c%d", i))
		if err := leaf.AttachClient(client, deliver); err != nil {
			t.Fatal(err)
		}
		err := leaf.Subscribe(wire.Subscription{
			Filter: filter.MustNew(filter.Range("val", message.Int(0), message.Int(1<<30))),
			Client: client, ID: "s",
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Release the gate before the broker cleanups run (LIFO), or a failed
	// assertion would leave the stalled run loop parked and Close hanging.
	t.Cleanup(release)

	// Let the subscriptions propagate to the hub before publishing: the
	// windowed pipes deliver through pumps, so each barrier round also
	// waits for the links to quiesce.
	for i := 0; i < 4; i++ {
		hub.Barrier()
		for _, leaf := range leafBrokers {
			leaf.Barrier()
		}
		for _, l := range links {
			l.WaitIdle()
		}
	}

	go func() {
		from := wire.ClientHop("p")
		for i := 0; i < pubN; i++ {
			n := message.New(map[string]message.Value{
				"val": message.Int(int64(i)),
			})
			hub.Receive(transport.Inbound{From: from, Msg: wire.NewPublish(n)})
		}
	}()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				counts := make([]int64, leaves)
				for i := range counts {
					counts[i] = delivered[i].Load()
				}
				t.Fatalf("timeout waiting for %s\ndelivered=%v\nhub stats=%+v", desc, counts, hub.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The healthy leaves must see everything despite the stalled sibling.
	waitFor("healthy leaves to receive all publishes", func() bool {
		for i := 1; i < leaves; i++ {
			if delivered[i].Load() < pubN {
				return false
			}
		}
		return true
	})

	mid := hub.Stats()
	if hw := mid.LinkQueueHighWater; hw > window+2 {
		t.Fatalf("link queue high water %d exceeds window %d", hw, window)
	}
	for i := 1; i < leaves; i++ {
		if fs := mid.LinkFlow[leafBrokers[i].ID()]; fs.ShedNewest != 0 {
			t.Fatalf("healthy leaf %d lost messages: %+v", i, fs)
		}
	}
	// The stalled leaf's run loop is parked, so Stats (which runs on it)
	// would wait for the gate; its mailbox counters are read directly.
	stalled := leafBrokers[0]
	if box := stalled.box.flowStats(); box.ShedNewest == 0 {
		t.Fatalf("stalled leaf shed nothing; want mailbox overflow (mailbox %+v)", box)
	}

	// Resume the leaf: every publish must now be accounted for as either
	// delivered or shed at the stalled leaf's mailbox — nothing lost
	// elsewhere.
	release()
	waitFor("stalled leaf to drain", func() bool {
		return delivered[0].Load()+int64(stalled.Stats().Mailbox.ShedNewest) == pubN
	})

	box := stalled.Stats().Mailbox
	if box.HighWater > window+2 {
		t.Fatalf("stalled leaf mailbox high water %d exceeds capacity %d", box.HighWater, window)
	}
	if delivered[0].Load() == 0 {
		t.Fatal("stalled leaf delivered nothing after resuming")
	}
	t.Logf("stalled leaf: delivered=%d shed=%d mailboxHighWater=%d hubCreditStalls=%d",
		delivered[0].Load(), box.ShedNewest, box.HighWater, hub.Stats().LinkCreditStalls)
}
