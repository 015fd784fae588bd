package main

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/flow"
	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Batch sizes of the layer measurements: large enough that reading the
// clock twice per batch does not show, small enough for many batches per
// measurement.
const (
	callBatch  = 256
	frameBatch = 64 // frames per SendBatch+Flush, and items per queue drain
)

// pick spreads an index over n items so that consecutive calls do not walk
// two input lists in lockstep.
func pick(i, n int) int { return (i * 7919) % n }

// layers measures message, wire, filter, routing and flow on the workload's
// inputs.
func (t *tracer) layers(in *layerInputs, slice time.Duration, out *outcome) {
	nn, nf := len(in.notifs), len(in.filters)

	// message
	var buf []byte
	m := t.measure("message.encode", slice, callBatch, func(i int) {
		buf = message.AppendNotification(buf[:0], in.notifs[i%nn])
	})
	out.setSampled("message.encode_ns", m.ns, "ns", m.calls)
	encoded := make([][]byte, nn)
	for i, n := range in.notifs {
		encoded[i] = message.AppendNotification(nil, n)
	}
	m = t.measure("message.decode", slice, callBatch, func(i int) {
		n, _, _, err := message.DecodeNotificationCanonical(encoded[i%nn])
		if err == nil {
			sink.Add(int64(n.Len()))
		}
	})
	out.setSampled("message.decode_ns", m.ns, "ns", m.calls)
	out.set("message.decode_allocs", m.allocs, "count")

	// wire
	codec := func(name string, msgs []wire.Message) (frames [][]byte) {
		frames = make([][]byte, len(msgs))
		var bytes int
		for i, msg := range msgs {
			f, err := wire.AppendEncode(nil, msg)
			if err != nil {
				panic(err) // the generator built the message
			}
			frames[i] = f
			bytes += len(f)
		}
		m := t.measure("wire.encode_"+name, slice, callBatch, func(i int) {
			buf, _ = wire.AppendEncode(buf[:0], msgs[i%len(msgs)])
		})
		out.setSampled("wire.encode_"+name+"_ns", m.ns, "ns", m.calls)
		m = t.measure("wire.decode_"+name, slice, callBatch, func(i int) {
			msg, err := wire.Decode(frames[i%len(frames)])
			if err == nil {
				sink.Add(int64(msg.Type))
			}
		})
		out.setSampled("wire.decode_"+name+"_ns", m.ns, "ns", m.calls)
		if name == "publish" {
			out.set("wire.decode_publish_allocs", m.allocs, "count")
			out.set("wire.frame_bytes", float64(bytes)/float64(len(frames)), "B")
		}
		return frames
	}
	publishes := make([]wire.Message, nn)
	delivers := make([]wire.Message, nn)
	for i, n := range in.notifs {
		publishes[i] = wire.NewPublish(n)
		delivers[i] = wire.NewDeliver(wire.Deliver{Client: "sub", ID: subID(pick(i, nf)),
			Item: wire.SeqNotification{Seq: uint64(i + 1), Notif: n}})
	}
	subscribes := make([]wire.Message, nf)
	for i, f := range in.filters {
		subscribes[i] = wire.NewSubscribe(wire.Subscription{Filter: f, ID: subID(i)})
	}
	codec("publish", publishes)
	codec("deliver", delivers)
	codec("subscribe", subscribes)

	// filter
	m = t.measure("filter.parse", slice, callBatch, func(i int) {
		if f, err := filter.Parse(in.srcs[i%nf]); err == nil {
			sink.Add(int64(f.Len()))
		}
	})
	out.setSampled("filter.parse_ns", m.ns, "ns", m.calls)
	m = t.measure("filter.matches", slice, callBatch, func(i int) {
		if in.filters[pick(i, nf)].Matches(in.notifs[i%nn]) {
			sink.Add(1)
		}
	})
	out.setSampled("filter.matches_ns", m.ns, "ns", m.calls)
	m = t.measure("filter.covers", slice, callBatch, func(i int) {
		if in.filters[pick(i, nf)].Covers(in.filters[i%nf]) {
			sink.Add(1)
		}
	})
	out.setSampled("filter.covers_ns", m.ns, "ns", m.calls)

	// routing: the table a border broker would hold for the workload's
	// subscriber.
	entries := make([]routing.Entry, nf)
	for i, f := range in.filters {
		entries[i] = routing.Entry{Filter: f, Hop: wire.ClientHop("sub"), Client: "sub", SubID: subID(i)}
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap := ms.HeapAlloc
	table := routing.NewTable()
	for _, e := range entries {
		table.Add(e)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	out.set("routing.heap_bytes_per_sub", (float64(ms.HeapAlloc)-float64(heap))/float64(nf), "B")

	var matched int64
	visit := func(*routing.Entry) { matched++ }
	from := wire.ClientHop("pub")
	m = t.measure("routing.match", slice, callBatch, func(i int) {
		table.EachMatchingEntry(in.notifs[i%nn], from, visit)
	})
	out.setSampled("routing.match_ns", m.ns, "ns", m.calls)
	out.set("routing.match_allocs", m.allocs, "count")
	out.set("routing.matches_per_notification", float64(matched)/float64(m.calls), "count")

	m = t.measure("routing.client_entries", slice, callBatch, func(i int) {
		sink.Add(int64(len(table.ClientEntries("sub", subID(i%nf)))))
	})
	out.setSampled("routing.client_entries_ns", m.ns, "ns", m.calls)
	rm, _ := t.measureCycle("routing.remove_client", "routing.readd", slice, nf,
		func(i int) { table.RemoveClient("sub", subID(i)) },
		func(i int) { table.Add(entries[i]) })
	out.setSampled("routing.remove_client_ns", rm.ns, "ns", rm.calls)
	rm, add := t.measureCycle("routing.remove", "routing.add", slice, nf,
		func(i int) { table.Remove(entries[i]) },
		func(i int) { table.Add(entries[i]) })
	out.setSampled("routing.add_ns", add.ns, "ns", add.calls)
	out.setSampled("routing.remove_ns", rm.ns, "ns", rm.calls)

	// The forwarding control plane toward one neighbour, default strategy.
	fwd := routing.NewForwarder(routing.Covering)
	neighbour := wire.BrokerHop("n")
	var deltas, updates int64
	count := func(u routing.Update) {
		deltas++
		if !u.Empty() {
			updates++
		}
	}
	add, rm = t.measureCycle("routing.fwd_add", "routing.fwd_remove", slice, nf,
		func(i int) { count(fwd.AddFilter(neighbour, in.filters[i])) },
		func(i int) { count(fwd.RemoveFilter(neighbour, in.filters[pick(i, nf)])) })
	out.setSampled("routing.fwd_add_ns", add.ns, "ns", add.calls)
	out.setSampled("routing.fwd_remove_ns", rm.ns, "ns", rm.calls)
	out.set("routing.fwd_updates_per_op", float64(updates)/float64(deltas), "ratio")

	// flow: the queue under the mailbox and the link rings, filled and
	// drained the way a broker does — a burst in, one batch out.
	q := flow.NewQueue[wire.Message](flow.Options{}, func(m wire.Message) flow.Class { return m.Type.FlowClass() })
	var popped, batches int64
	push, pop := t.measureCycle("flow.push", "flow.popbatch", slice, frameBatch,
		func(i int) { _ = q.Push(publishes[i%nn]) }, // an open, unbounded queue accepts every push
		func(i int) {
			if i > 0 {
				return // one PopBatch drains the whole burst
			}
			batch, _ := q.PopBatch()
			popped += int64(len(batch))
			batches++
			q.Recycle(batch)
		})
	q.Close()
	out.setSampled("flow.push_ns", push.ns, "ns", push.calls)
	out.setSampled("flow.popbatch_ns_per_item", pop.ns, "ns", pop.calls)
	out.set("flow.batch_items_mean", float64(popped)/float64(batches), "count")
}

// transport measures a TCP link pair on loopback inside this process.
func (t *tracer) transport(in *layerInputs, slice time.Duration, out *outcome) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var received atomic.Int64
	var lastAt atomic.Int64
	recv := transport.ReceiverFunc(func(transport.Inbound) {
		lastAt.Store(t.clk.now())
		received.Add(1)
	})
	accepted := make(chan *transport.TCPLink, 1)
	acceptErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		l, err := transport.AcceptTCP(conn, "tb", recv)
		if err != nil {
			acceptErr <- err
			return
		}
		accepted <- l
	}()
	a, err := transport.DialTCP(ln.Addr().String(), "ta", transport.ReceiverFunc(func(transport.Inbound) {}))
	if err != nil {
		return err
	}
	defer a.Close()
	var b *transport.TCPLink
	select {
	case b = <-accepted:
	case err := <-acceptErr:
		return err
	}
	defer b.Close()
	awaitReceived := func(want int64) {
		for deadline := time.Now().Add(5 * time.Second); received.Load() < want && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}

	nn := len(in.notifs)
	fresh := make([]wire.Message, nn)  // encoded by the link, as a client's publish is
	cached := make([]wire.Message, nn) // carrying their frame, as a transit broker's forward does
	for i, n := range in.notifs {
		fresh[i] = wire.NewPublish(n)
		frame, err := wire.AppendEncode(nil, fresh[i])
		if err != nil {
			return err
		}
		if cached[i], err = wire.Decode(frame); err != nil {
			return err
		}
	}

	// One-way floor: a frame on an idle link, from the Send call to the
	// receiver's callback.
	var oneway []int64
	root := t.add("transport.oneway", t.clk.now(), 0, -1, 0)
	for deadline := t.clk.now() + int64(slice); t.clk.now() < deadline; {
		want := received.Load() + 1
		t0 := t.clk.now()
		if err := a.Send(fresh[len(oneway)%nn]); err != nil {
			return err
		}
		awaitReceived(want)
		oneway = append(oneway, lastAt.Load()-t0)
		if len(oneway) <= maxBatchSpans {
			t.add("transport.oneway", t0, lastAt.Load(), root, int64(len(oneway)))
		}
		time.Sleep(200 * time.Microsecond)
	}
	slices.Sort(oneway)
	out.setSampled("transport.oneway_p50_us", usOf(percentile(oneway, 0.5)), "us", len(oneway))

	// Send cost per frame, the receiver keeping up: Send of unencoded
	// messages, and SendBatch of pre-encoded ones followed by Flush.
	var sendErr error
	sent := received.Load()
	m := t.measure("transport.send", slice, frameBatch, func(i int) {
		if err := a.Send(fresh[i%nn]); err != nil {
			sendErr = err
		}
	}, func() {
		sent += frameBatch
		awaitReceived(sent)
	})
	out.setSampled("transport.send_ns_per_frame", m.ns, "ns", m.calls)
	burst := make([]wire.Message, frameBatch)
	m = t.measure("transport.sendbatch", slice, 1, func(i int) {
		for j := range burst {
			burst[j] = cached[(i*frameBatch+j)%nn]
		}
		if err := a.SendBatch(burst); err != nil {
			sendErr = err
		}
		if err := a.Flush(); err != nil {
			sendErr = err
		}
	})
	out.setSampled("transport.sendbatch_ns_per_frame", m.ns/frameBatch, "ns", m.calls*frameBatch)
	sent += int64(m.calls * frameBatch)
	awaitReceived(sent)

	// Streaming: frames per second through the pair, allocations per frame
	// on both ends together, and how often the sender ran out of window.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, stalls := ms.Mallocs, a.FlowStats().CreditStalls
	t0 := t.clk.now()
	var streamed int64
	for deadline := t0 + int64(slice); t.clk.now() < deadline; streamed++ {
		if err := a.Send(fresh[streamed%int64(nn)]); err != nil {
			sendErr = err
		}
	}
	awaitReceived(sent + streamed)
	t1 := t.clk.now()
	t.add("transport.stream", t0, t1, -1, streamed)
	runtime.ReadMemStats(&ms)
	out.setSampled("transport.stream_frames_per_s", float64(streamed)/sec(t1-t0), "1/s", int(streamed))
	out.set("transport.allocs_per_frame", float64(ms.Mallocs-mallocs)/float64(streamed), "count")
	out.set("transport.credit_stalls", float64(a.FlowStats().CreditStalls-stalls), "count")
	if sendErr != nil {
		return fmt.Errorf("transport measurement: %w", sendErr)
	}
	return nil
}

// broker measures one in-process broker with default options and no links:
// publish to delivery callback, and the subscribe path.
func (t *tracer) broker(in *layerInputs, slice time.Duration, out *outcome) error {
	b := broker.New("tb", broker.Options{})
	b.Start()
	defer b.Close()
	var delivered atomic.Int64
	if err := b.AttachClient("sub", func(wire.Deliver) { delivered.Add(1) }); err != nil {
		return err
	}
	if err := b.AttachClient("pub", nil); err != nil {
		return err
	}
	nn, nf := len(in.notifs), len(in.filters)
	subs := make([]wire.Subscription, nf)
	for i, f := range in.filters {
		subs[i] = wire.Subscription{Filter: f, Client: "sub", ID: subID(i), IsMobile: i < in.mobile}
	}
	var opErr error
	unsub, sub := t.measureCycle("broker.unsubscribe", "broker.subscribe", slice, nf,
		func(i int) {
			// Nothing is subscribed before the first pass.
			_ = b.Unsubscribe("sub", subs[i].ID)
		},
		func(i int) {
			if err := b.Subscribe(subs[i]); err != nil {
				opErr = err
			}
		})
	if opErr != nil {
		return fmt.Errorf("broker subscribe: %w", opErr)
	}
	out.setSampled("broker.subscribe_ns", sub.ns, "ns", sub.calls)
	out.setSampled("broker.unsubscribe_ns", unsub.ns, "ns", unsub.calls)

	m := t.measure("broker.publish_deliver", slice, callBatch, func(i int) {
		if err := b.Publish("pub", in.notifs[i%nn]); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return fmt.Errorf("broker publish: %w", opErr)
	}
	out.setSampled("broker.publish_deliver_ns", m.ns, "ns", m.calls)
	out.set("broker.publish_allocs", m.allocs, "count")
	match, _ := out.get("routing.match_ns")
	push, _ := out.get("flow.push_ns")
	pop, _ := out.get("flow.popbatch_ns_per_item")
	out.set("broker.self_ns", m.ns-match-push-pop, "ns")
	return nil
}

// mobility measures core.MoveTo on an in-process star: a roamer holding the
// workload's (first four) subscriptions as mobile ones ping-pongs between
// two leaves while a publisher on the hub keeps publishing.
func (t *tracer) mobility(in *layerInputs, slice time.Duration, out *outcome) error {
	n := core.NewNetwork()
	defer n.Close()
	hub, leaves, err := n.BuildStar("m", 2, 0)
	if err != nil {
		return err
	}
	pub, err := n.NewClient("pub", hub, nil)
	if err != nil {
		return err
	}
	var replayed atomic.Int64
	roamer, err := n.NewClient("roamer", leaves[0], func(e core.Event) {
		if e.Replayed {
			replayed.Add(1)
		}
	})
	if err != nil {
		return err
	}
	for i := 0; i < len(in.filters) && i < roamLanes; i++ {
		if err := roamer.Subscribe(core.SubSpec{ID: subID(i), Filter: in.filters[i], Mobile: true}); err != nil {
			return err
		}
	}
	var moveErr error
	move := func(i int) {
		if err := roamer.MoveTo(leaves[(i+1)%2]); err != nil {
			moveErr = err
		}
	}
	// Allocations first, with nothing else running in the process.
	quiet := t.measure("core.moveto_quiet", slice/4, 8, move)
	out.set("core.moveto_allocs", quiet.allocs, "count")

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				_ = pub.Publish(in.notifs[i%len(in.notifs)]) // fails only once the network is closed
			}
		}
	}()
	replayed.Store(0)
	loaded := t.measure("core.moveto", slice, 8, func(i int) { move(quiet.calls + i) })
	close(stop)
	<-done
	roamer.Flush()
	if moveErr != nil {
		return fmt.Errorf("core.MoveTo: %w", moveErr)
	}
	out.setSampled("core.moveto_us", usOf(loaded.ns), "us", loaded.calls)
	out.set("core.replay_items_mean", float64(replayed.Load())/float64(loaded.calls), "count")
	return nil
}

// budget sets the layers' costs against the traced end-to-end median: what
// one notification pays, layer by layer, on its way from the publisher's
// Send to the subscriber's callback, and what is left over.
func budget(in *layerInputs, deliverP50us float64, out *outcome) {
	v := func(name string) float64 { x, _ := out.get(name); return x }
	b := float64(in.brokers)
	queue := v("flow.push_ns") + v("flow.popbatch_ns_per_item")
	groups := []struct {
		name, what string
		ns         float64
	}{
		{"budget.match_us", "routing.match + message.decode per broker, wire.encode_deliver once",
			b*(v("routing.match_ns")+v("message.decode_ns")) + v("wire.encode_deliver_ns")},
		{"budget.wire_us", "wire.encode_publish once, the rest of wire.decode_publish per broker, wire.decode_deliver once",
			v("wire.encode_publish_ns") + b*(v("wire.decode_publish_ns")-v("message.decode_ns")) + v("wire.decode_deliver_ns")},
		{"budget.flow_us", "push + pop on the publisher's ring and on each broker's mailbox and ring",
			(2*b + 1) * queue},
		{"budget.transport_us", "the publisher's Send less its encode, and a pre-encoded frame's SendBatch share per broker",
			v("transport.send_ns_per_frame") - v("wire.encode_publish_ns") + b*v("transport.sendbatch_ns_per_frame")},
		{"budget.broker_self_us", "broker.self per broker",
			b * v("broker.self_ns")},
	}
	var attributed float64
	for _, g := range groups {
		attributed += g.ns
	}
	out.note("where a microsecond goes: %d brokers between publisher and subscriber, traced deliver_p50 %.1f us", in.brokers, deliverP50us)
	for _, g := range groups {
		out.set(g.name, usOf(g.ns), "us")
		out.note("  %-22s %8.2f us  %5.1f%% of attributed  (%s)", g.name, usOf(g.ns), 100*g.ns/attributed, g.what)
	}
	out.set("budget.attributed_us", usOf(attributed), "us")
	out.set("budget.unattributed_us", deliverP50us-usOf(attributed), "us")
	out.note("  %-22s %8.2f us  not explained by any layer's own cost: kernel TCP, goroutine and process wake-ups, waiting in queues (link floor: %d x transport.oneway_p50 = %.1f us)",
		"budget.unattributed_us", deliverP50us-usOf(attributed), in.brokers+1, (b+1)*v("transport.oneway_p50_us"))
}
