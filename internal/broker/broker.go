// Package broker implements the Rebeca-style content-based broker of the
// paper: the message loop, routing tables, client management with
// per-subscription sequence numbering, the physical-mobility relocation
// protocol of Section 4 (virtual counterparts, junction detection, fetch,
// replay), and the logical-mobility location-dependent filter handling of
// Section 5 (ploc widening, location updates, adaptivity).
package broker

import (
	"errors"
	"fmt"
	"log"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/flow"
	"repro/internal/locfilter"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Errors returned by broker client-facing operations.
var (
	ErrUnknownClient   = errors.New("broker: unknown client")
	ErrDuplicateSub    = errors.New("broker: duplicate subscription id")
	ErrUnknownSub      = errors.New("broker: unknown subscription")
	ErrClosed          = errors.New("broker: closed")
	ErrInvalidMove     = errors.New("broker: move not allowed by movement graph")
	ErrAlreadyAttached = errors.New("broker: client already attached")
)

// inbound aliases the transport type for brevity inside the package.
type inbound = transport.Inbound

// DeliverFunc receives notifications for an attached client. It is called
// on the broker goroutine and must not block; client libraries queue
// internally. A notification that arrived over TCP shares its storage
// with its neighbours in the link reader's chunks (message.Chunks): a
// client that keeps it keeps that chunk, and should keep its Clone
// instead.
type DeliverFunc func(wire.Deliver)

// Options configures a broker.
type Options struct {
	// Strategy selects subscription forwarding (default Covering).
	Strategy routing.Strategy
	// Registry provides shared movement graphs for location-dependent
	// subscriptions. May be nil when logical mobility is unused.
	Registry *locfilter.Registry
	// ProcDelay is this broker's estimate δ of the time it needs to
	// process a batch of sub/unsub messages toward the next hop; it feeds
	// the adaptivity scheme of Section 5.3.
	ProcDelay time.Duration
	// Counter, when set, counts client deliveries (link traffic is counted
	// by the transport pipes).
	Counter *metrics.Counter
	// MaxBufferPerSub caps the virtual-counterpart buffer per subscription
	// ("completeness within the boundaries of time and/or space
	// limitations of buffering approaches", Section 4.1); overflow drops
	// the oldest and counts it in Stats.BufferDrops. It is also the
	// default of RelocBufferCap. Zero means DefaultMaxBufferPerSub.
	MaxBufferPerSub int
	// RelocBufferCap caps the two relocation-side buffers per
	// subscription independently of MaxBufferPerSub: the pending buffer
	// at the new border broker (notifications arriving over the new path
	// while the replay is outstanding) and replay items parked at
	// completion for a client that has already disconnected again.
	// Overflow drops the oldest buffered notification and counts it in
	// Stats.BufferDrops — the space half of Section 4.1's
	// "completeness within the boundaries of time and/or space
	// limitations", mirroring how Options.RelocTimeout bounds the same
	// buffers in time. Zero means MaxBufferPerSub.
	RelocBufferCap int
	// MailboxCapacity bounds the broker mailbox (tasks); 0 (the default)
	// keeps it unbounded, the seed behavior. A full bounded mailbox sheds
	// the newest notification (counted in Stats.Mailbox.ShedNewest);
	// control tasks — closures and admin messages — are always admitted,
	// and deliveries stall the pusher instead of being shed (see
	// internal/flow).
	MailboxCapacity int
	// RelocTimeout bounds how long a relocation re-subscription's pending
	// buffer waits for the replay from the old border broker. The planned
	// relocation protocol always produces a replay, but after an unplanned
	// broker crash there is no counterpart left to replay from; the
	// timeout flushes the buffered notifications as live traffic so a
	// failed-over subscriber resumes delivery instead of buffering forever
	// ("completeness within the boundaries of time ... limitations",
	// Section 4.1). Zero means DefaultRelocTimeout; negative disables the
	// timeout (the strict protocol, for the mobility tests).
	RelocTimeout time.Duration
}

// DefaultMaxBufferPerSub is the default per-subscription buffer cap.
const DefaultMaxBufferPerSub = 65536

// DefaultRelocTimeout is the default bound on how long a relocation waits
// for its replay before the pending buffer is flushed as live traffic
// (see Options.RelocTimeout).
const DefaultRelocTimeout = 5 * time.Second

// Broker is one node of the overlay. All state is owned by the run
// goroutine — the routing tables included, which have no lock of their
// own; external entry points post tasks to the mailbox.
type Broker struct {
	id   wire.BrokerID
	opts Options

	box  *mailbox
	done chan struct{}

	// State below is owned by the run goroutine.
	links   map[wire.BrokerID]transport.Link
	clients map[wire.ClientID]*clientState
	subs    *routing.Table // subscription routing table
	advs    *routing.Table // advertisement table
	fwd     *routing.Forwarder
	advFwd  map[string]map[string]bool // advKey -> hops forwarded to

	// Per-client-subscription propagation state.
	fwdSubs map[string]*fwdSub            // key -> mobile or location-dependent record
	fetched map[string]uint64             // key -> last relocation epoch fetched
	pending map[string]*relocationPending // key -> buffer at the NEW border broker (also clientSub.pending)

	// owned finds a matched client-hop row's delivery state by the row's
	// owner id in subs (see ownedAt); subsEpoch counts the local
	// subscriptions dropped or replaced, which retires every entry.
	owned     []ownedSub
	subsEpoch uint64

	// processed counts messages handled, by type (observability). An array
	// instead of a map keeps the per-task bump off the allocator and the
	// hash path; wire types fit comfortably.
	processed [processedTypes]uint64

	// Batched-pipeline state (owned by the run goroutine).
	out            outbox               // per-hop deferred link writes, flushed at batch boundaries
	pub            pubCtx               // per-publish routing context for the match visitor
	encLinks       int                  // links that serialize frames (transport.FrameEncoder)
	batchDepth     metrics.Distribution // tasks per mailbox drain
	flushDepth     metrics.Distribution // messages per per-link outbox flush burst
	batchRemaining int                  // unprocessed tail of the current batch, set at closure boundaries
	bufferDrops    uint64               // notifications dropped by a per-subscription buffer cap

	// Relocation lifecycle counters and the replay-size distribution
	// (owned by the run goroutine except replaySizes, which is atomic).
	relocStarted   uint64               // re-subscriptions that opened a pending replay buffer
	relocCompleted uint64               // relocations completed by a replay at this broker
	relocExpired   uint64               // pending buffers flushed by RelocTimeout instead of a replay
	replaySizes    metrics.Distribution // items per replay batch sent from local counterparts

	// Control-plane admin traffic sent by the forwarding strategy
	// (aggregate subscribe/unsubscribe messages toward neighbors).
	ctrlSubsSent   uint64
	ctrlUnsubsSent uint64

	// sendErrs counts failed link writes per hop.
	sendErrs linkErrTracker

	// killed marks a crash-stopped broker (Kill): the run loop discards
	// batches instead of processing them, simulating kill -9 for the
	// federation repair tests and the blackout experiment.
	killed atomic.Bool

	closeOnce sync.Once
}

// processedTypes sizes the processed counter array; tied to the wire
// constant set so new message types are counted automatically.
const processedTypes = int(wire.TypeCount)

// outbox collects the messages a batch produces per neighbor, in first-use
// order, so each link receives one FIFO burst per flush instead of a write
// per message. All link traffic is deferred through it — deferring only
// notifications would reorder them against control messages and break the
// relocation protocol's FIFO argument.
type outbox struct {
	order   []wire.BrokerID
	pending map[wire.BrokerID][]wire.Message
}

// ownedSub is the delivery state of the local subscription whose rows
// have one owner id in the subscription table.
type ownedSub struct {
	cs    *clientState
	st    *clientSub
	epoch uint64 // Broker.subsEpoch when cs and st were looked up
	seen  uint64 // pubCtx.mark of the last publish that queued st
}

// pubCtx carries one publish through the table's match visitor without a
// per-publish closure allocation: visit is bound once at construction and
// reads the notification, arrival hop, and lazily built fan-out message
// from here. Owned by the run goroutine.
type pubCtx struct {
	visit func(*routing.Entry, int)
	n     message.Notification
	from  wire.Hop
	// msg is the shared fan-out envelope: the inbound one, or own, built
	// at a local publish's first broker hop; nil until then.
	msg  *wire.Message
	own  wire.Message
	mark uint64 // numbers the publishes: ownedSub.seen de-duplicates by it
	// deliveries collects the owner ids of the local subscriptions a
	// publish matched; they are delivered after the match visit returns,
	// so a delivery — and the client callback it runs, arbitrary user code
	// — never executes while the match holds the subscription table's one
	// scratch, which a visit must not re-enter. Reused across publishes.
	deliveries []int
}

// Stats is a snapshot of a broker's processed-message counters.
type Stats struct {
	// Processed counts inbound messages handled by the message loop, by
	// wire type (client-API calls count under their wire equivalents).
	Processed map[wire.Type]uint64
	// SubEntries and AdvEntries are the current routing-table sizes.
	SubEntries, AdvEntries int
	// SubIndex and AdvIndex describe the predicate match index backing
	// each routing table (posting-list shape, match-all rows).
	SubIndex, AdvIndex routing.IndexStats
	// MailboxDepth is the number of queued, not yet processed tasks: the
	// mailbox plus the drained-but-unprocessed tail of the current batch.
	MailboxDepth int
	// BatchesProcessed counts mailbox drains executed by the message loop;
	// MaxBatchSize is the largest single drain and MeanBatchSize the
	// average (batch-depth observability for the batched pipeline).
	BatchesProcessed uint64
	MaxBatchSize     int
	MeanBatchSize    float64
	// BufferDrops totals the drop-oldest evictions from the three
	// per-subscription buffers: a disconnected client's virtual
	// counterpart under Options.MaxBufferPerSub, and under
	// Options.RelocBufferCap the pending buffer at the new border broker
	// and replay items parked at completion for a disconnected client.
	BufferDrops uint64
	// RelocationsStarted / RelocationsCompleted / RelocationsExpired
	// count this broker's border-side relocation lifecycle:
	// re-subscriptions that opened a pending replay buffer, replays that
	// completed one, and pending buffers flushed by RelocTimeout because
	// the replay never came (crashed old border broker).
	RelocationsStarted   uint64
	RelocationsCompleted uint64
	RelocationsExpired   uint64
	// ReplayBatches / ReplayMeanItems / ReplayMaxItems describe the
	// replay batches this broker's virtual counterparts sent back toward
	// relocated clients — the per-relocation replay size distribution.
	ReplayBatches   uint64
	ReplayMeanItems float64
	ReplayMaxItems  uint64
	// ControlSubsSent and ControlUnsubsSent count the administrative
	// subscribe/unsubscribe messages this broker's forwarding strategy
	// sent to neighbors — the per-strategy admin traffic Figure 9
	// compares.
	ControlSubsSent   uint64
	ControlUnsubsSent uint64
	// Forwarder describes the subscription-forwarding control plane:
	// strategy, tracked/forwarded filter counts, and cover-check work.
	Forwarder routing.ForwarderStats
	// Mailbox is the flow-control snapshot of the broker mailbox:
	// configured capacity and policy, depth high-water mark, credit
	// stalls, and drops by policy (all zero counters when unbounded).
	Mailbox flow.Stats
	// LinkFlow reports the send-window flow snapshot of each neighbor
	// link that exposes one (flow.Reporter: windowed ChanLinks, the
	// TCPLink frame ring), keyed by neighbor — the per-link queue-depth
	// distribution that makes a slow consumer visible at its own link.
	LinkFlow map[wire.BrokerID]flow.Stats
	// LinkCreditStalls and LinkShedNewest aggregate the per-link
	// counters across LinkFlow: how often this broker was stalled waiting
	// for link credit, and how many notifications its link windows shed.
	// LinkQueueHighWater is the largest send-window depth any link
	// reached.
	LinkCreditStalls   uint64
	LinkShedNewest     uint64
	LinkQueueHighWater int
	// FlushMaxBurst and FlushMeanBurst describe the per-link bursts
	// flushOutbox hands to links at batch boundaries (the sending-side
	// counterpart of the mailbox batch-depth distribution).
	FlushMaxBurst  int
	FlushMeanBurst float64
	// LinkSendErrors counts failed link writes (Send/SendBatch/Flush) per
	// hop; nil when every write has succeeded. LinkSendErrorsTotal is the
	// sum. The first failure of each link transition is also logged
	// (once).
	LinkSendErrors      map[wire.Hop]uint64
	LinkSendErrorsTotal uint64
}

// clientState tracks an attached (or roaming-away) client.
type clientState struct {
	id      wire.ClientID
	deliver DeliverFunc
	// link, when set, takes the deliveries instead of deliver: a remote
	// client on a frame-encoding link (see AttachRemoteClient).
	link      transport.DeliverySender
	connected bool
	subs      map[wire.SubID]*clientSub
	advs      map[wire.SubID]filter.Filter
	// locExact holds the client-side filter F0 of each location-dependent
	// subscription, instantiated at the client's current location; every
	// other subscription's F0 is its own filter (see clientFilter).
	locExact map[wire.SubID]filter.Filter
}

// reachable reports whether deliveries reach the client now; otherwise
// the virtual counterpart buffers them.
func (cs *clientState) reachable() bool {
	return cs.connected && (cs.deliver != nil || cs.link != nil)
}

// clientFilter returns the subscription's client-side filter F0.
func (cs *clientState) clientFilter(id wire.SubID, st *clientSub) filter.Filter {
	if st.sub.LocDependent {
		return cs.locExact[id]
	}
	return st.sub.Filter
}

// clientSub is one subscription of a locally attached client: its delivery
// sequence numbering, the virtual counterpart's buffer while the client is
// disconnected (Section 4.1), and its Broker.pending entry while it
// relocates here.
type clientSub struct {
	sub     wire.Subscription
	nextSeq uint64
	buffer  []wire.SeqNotification
	pending *relocationPending
}

// dropSub removes a local subscription's delivery state, retiring every
// cached owner id (see ownedAt).
func (b *Broker) dropSub(cs *clientState, id wire.SubID) {
	if _, ok := cs.subs[id]; ok {
		delete(cs.subs, id)
		b.subsEpoch++
	}
}

// relocationPending buffers notifications arriving over the new path while
// the relocation replay is still outstanding, so the old messages can be
// delivered first ("delivers the old messages from B6 first", Section 4.1).
// When Options.RelocTimeout is enabled, timer bounds the wait: an
// unplanned crash of the old border broker means no replay ever comes,
// and the timeout flushes the buffer as live traffic instead (epoch
// guards a flush racing a newer relocation of the same subscription).
type relocationPending struct {
	client wire.ClientID
	id     wire.SubID
	epoch  uint64
	notifs []message.Notification
	timer  *time.Timer
}

// New creates a broker. Call Run (usually via Start) to process messages.
func New(id wire.BrokerID, opts Options) *Broker {
	if opts.Strategy == 0 {
		opts.Strategy = routing.Covering
	}
	if opts.MaxBufferPerSub == 0 {
		opts.MaxBufferPerSub = DefaultMaxBufferPerSub
	}
	if opts.RelocBufferCap == 0 {
		opts.RelocBufferCap = opts.MaxBufferPerSub
	}
	b := &Broker{
		id:      id,
		opts:    opts,
		box:     newMailbox(opts.MailboxCapacity),
		done:    make(chan struct{}),
		links:   make(map[wire.BrokerID]transport.Link),
		clients: make(map[wire.ClientID]*clientState),
		subs:    routing.NewTable(),
		advs:    routing.NewTable(),
		fwd:     routing.NewForwarder(opts.Strategy),
		advFwd:  make(map[string]map[string]bool),
		fwdSubs: make(map[string]*fwdSub),
		fetched: make(map[string]uint64),
		pending: make(map[string]*relocationPending),
		out:     outbox{pending: make(map[wire.BrokerID][]wire.Message)},
	}
	b.pub.visit = b.visitPublishEntry
	return b
}

// ID returns the broker's identity.
func (b *Broker) ID() wire.BrokerID { return b.id }

// Start launches the message loop: the one goroutine that handles every
// message and writes every link.
func (b *Broker) Start() {
	go b.run()
}

// Close stops the message loop after draining queued tasks and closes all
// links. It is safe to call multiple times.
func (b *Broker) Close() {
	b.closeOnce.Do(func() {
		b.box.close()
		<-b.done
	})
}

// Kill crash-stops the broker: unlike Close, queued and in-flight tasks
// are discarded unprocessed and nothing is flushed — the closest an
// in-process broker gets to kill -9. Pending exec calls (and any client
// API call serialized through the mailbox) unblock with ErrClosed. Used
// by the federation layer to simulate unplanned broker death; a killed
// broker never recovers (a rejoin is a new Broker).
func (b *Broker) Kill() {
	b.killed.Store(true)
	b.Close()
}

// Receive implements transport.Receiver: links push inbound messages here.
func (b *Broker) Receive(in inbound) {
	b.box.push(task{in: in})
}

// ReceiveBurst implements transport.BatchReceiver: a link-level burst
// enters the mailbox under a single lock acquisition.
func (b *Broker) ReceiveBurst(from wire.Hop, ms []wire.Message) {
	b.box.pushBurst(from, ms)
}

var _ transport.Receiver = (*Broker)(nil)
var _ transport.BatchReceiver = (*Broker)(nil)

// exec runs fn on the broker goroutine and waits for completion.
func (b *Broker) exec(fn func()) error {
	doneCh := make(chan struct{})
	b.box.push(task{fn: func() {
		defer close(doneCh)
		fn()
	}})
	select {
	case <-doneCh:
		return nil
	case <-b.done:
		return ErrClosed
	}
}

func (b *Broker) run() {
	defer close(b.done)
	for {
		batch, ok := b.box.popBatch()
		if !ok {
			for _, l := range b.links {
				_ = l.Close()
			}
			return
		}
		if b.killed.Load() {
			// Crash-stopped: drop the batch on the floor (no handlers, no
			// outbox flush) and keep draining until the mailbox closes.
			b.box.recycle(batch)
			continue
		}
		b.processBatch(batch)
		b.box.recycle(batch)
	}
}

// processBatch handles one mailbox drain as a unit: inbound messages run
// their handlers with link writes deferred into the outbox, and the
// outbox flushes at the end of the batch. A control closure forces a
// flush first, preserving the exec/Barrier contract that every earlier
// task's output is on the wire before the closure observes the broker.
//
// Every task, publish or control, runs here in mailbox order against the
// one routing table, so a publish is always matched against the routing
// state every earlier control message left behind.
func (b *Broker) processBatch(batch []task) {
	b.batchDepth.Observe(uint64(len(batch)))
	for i := range batch {
		t := &batch[i]
		if t.fn != nil {
			b.flushOutbox()
			// Closures (Stats among them) observe the drained-but-
			// unprocessed tail of this batch as queue depth.
			b.batchRemaining = len(batch) - i - 1
			t.fn()
			continue
		}
		if int(t.in.Msg.Type) < processedTypes {
			b.processed[t.in.Msg.Type]++
		}
		// The handlers get the envelope by pointer and keep none of it:
		// recycle clears the batch.
		if t.in.From.IsClient() {
			b.clientInbound(t.in.From, &t.in.Msg)
			continue
		}
		b.dispatch(&t.in)
	}
	b.flushOutbox()
}

// flushOutbox writes every deferred message to its link, one FIFO burst
// per neighbor, and flushes the link before returning. Runs on the broker
// goroutine, the only writer of every link.
func (b *Broker) flushOutbox() {
	if len(b.out.order) > 0 {
		var retained []wire.BrokerID
		for _, id := range b.out.order {
			msgs := b.out.pending[id]
			l, ok := b.links[id]
			if !ok {
				// Half-open link: a Connect in progress let inbound traffic
				// arrive before our AddLink ran. Keep the burst queued — the
				// batch boundary after AddLink flushes it. (RemoveLink deletes
				// the pending queue, so dead peers do not accumulate here.)
				if len(msgs) > 0 {
					retained = append(retained, id)
				}
				continue
			}
			if len(msgs) > 0 {
				b.flushDepth.Observe(uint64(len(msgs)))
				if err := sendBurst(l, msgs); err != nil {
					b.sendErrs.record(b.id, wire.BrokerHop(id), err)
				}
			}
			if cap(msgs) > maxOutboxRetainCap {
				// Let spike-sized buffers go to the GC whole instead of
				// pinning high-water memory per neighbor (mirrors the
				// mailbox's recycle cap).
				b.out.pending[id] = nil
				continue
			}
			for i := range msgs {
				msgs[i] = wire.Message{}
			}
			b.out.pending[id] = msgs[:0]
		}
		b.out.order = append(b.out.order[:0], retained...)
	}
	// Sweep the pending map when it has grown past the live set: an entry
	// whose neighbor is neither linked nor retained above (e.g. its spike
	// burst was nilled and the link later vanished) would otherwise keep
	// its map slot forever.
	if len(b.out.pending) > len(b.links)+len(b.out.order) {
		for id, q := range b.out.pending {
			if _, live := b.links[id]; live || len(q) > 0 {
				continue
			}
			delete(b.out.pending, id)
		}
	}
}

// maxOutboxRetainCap caps the per-neighbor outbox backing array kept
// across flushes.
const maxOutboxRetainCap = 1 << 14

// sendBurst writes one per-link burst: batching transports get the whole
// slice, plain links a Send loop plus Flush. The first error is returned
// (later messages are still attempted — a transport that failed once
// fails them all cheaply). Called by flushOutbox on the run goroutine.
func sendBurst(l transport.Link, msgs []wire.Message) error {
	if bs, ok := l.(transport.BatchSender); ok {
		return bs.SendBatch(msgs)
	}
	var err error
	for _, m := range msgs {
		if e := l.Send(m); e != nil && err == nil {
			err = e
		}
	}
	if fl, ok := l.(transport.Flusher); ok {
		if e := fl.Flush(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// linkErrTracker counts failed link writes per hop and logs the first
// failure of each link transition, so a dying peer is visible without a
// log line per lost message. Every write, and so every record, happens on
// the run goroutine; the lock costs nothing on a successful write (record
// runs only on failure) and keeps the tracker safe for any caller.
type linkErrTracker struct {
	mu     sync.Mutex
	counts map[wire.Hop]uint64
	logged map[wire.Hop]bool
}

// record counts one failed write and logs the link's first failure since
// the last reset.
func (t *linkErrTracker) record(broker wire.BrokerID, hop wire.Hop, err error) {
	t.mu.Lock()
	if t.counts == nil {
		t.counts = make(map[wire.Hop]uint64)
		t.logged = make(map[wire.Hop]bool)
	}
	t.counts[hop]++
	first := !t.logged[hop]
	t.logged[hop] = true
	n := t.counts[hop]
	t.mu.Unlock()
	if first {
		log.Printf("broker %s: send to %s failed: %v (error %d; further errors on this link are counted silently)",
			broker, hop, err, n)
	}
}

// reset re-arms the log-once latch for a hop — AddLink/RemoveLink call it
// so a replacement link's first failure is logged again. The error count
// is cumulative across link generations.
func (t *linkErrTracker) reset(hop wire.Hop) {
	t.mu.Lock()
	delete(t.logged, hop)
	t.mu.Unlock()
}

// snapshot copies the per-hop error counts (nil when clean).
func (t *linkErrTracker) snapshot() (m map[wire.Hop]uint64, total uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.counts) == 0 {
		return nil, 0
	}
	m = make(map[wire.Hop]uint64, len(t.counts))
	for h, n := range t.counts {
		m[h] = n
		total += n
	}
	return m, total
}

// AddLink registers a link to a neighbor broker. The overlay must remain
// acyclic and connected (the system model of Section 2.1); Network in
// package core enforces this. The new neighbor's routing state is seeded
// from the current tables, so a broker joining — or re-attaching to — an
// overlay that already carries state learns it immediately instead of at
// the next table change:
//
//   - aggregate (plain) interest through the batch Recompute oracle,
//   - known advertisements through the flood dedup (reofferAdvs),
//   - per-client (mobile and location-dependent) subscriptions, through
//     the one offer rule (offerEach).
//
// The last two make AddLink sufficient as the repair primitive after a
// broker crash: the surviving subtrees re-exchange everything a new edge
// needs to carry, with the same dedup state steady-state propagation
// uses, so repair introduces no parallel reseed logic.
func (b *Broker) AddLink(peer wire.BrokerID, l transport.Link) error {
	return b.exec(func() {
		if old, ok := b.links[peer]; ok {
			if _, enc := old.(transport.FrameEncoder); enc {
				b.encLinks--
			}
		}
		b.links[peer] = l
		if _, enc := l.(transport.FrameEncoder); enc {
			b.encLinks++
		}
		// A new link is a new error transition: its first failure should
		// be logged even if the old link to this peer failed before.
		b.sendErrs.reset(wire.BrokerHop(peer))
		hop := wire.BrokerHop(peer)
		b.sendForwardUpdate(b.fwd.Recompute(hop, b.aggregateInputs(hop)))
		b.reofferAdvs(hop)
		b.offerEach(hop)
	})
}

// reofferAdvs extends the advertisement flood across a new link: every
// known advertisement not learned from the new neighbor itself is offered
// to it, through the same advFwd dedup the flood handler uses (a hop that
// already saw the advertisement is skipped). Runs on the broker goroutine
// from AddLink.
func (b *Broker) reofferAdvs(hop wire.Hop) {
	for _, e := range b.advs.All() {
		if e.Hop == hop {
			continue
		}
		adv := wire.Subscription{Filter: e.Filter, Client: e.Client, ID: e.SubID}
		key := "adv:" + adv.Key() + ":" + adv.Filter.ID()
		sent := b.advFwd[key]
		if sent == nil {
			sent = make(map[string]bool)
			b.advFwd[key] = sent
		}
		if sent[hop.String()] {
			continue
		}
		sent[hop.String()] = true
		b.send(hop, wire.NewAdvertise(adv))
	}
}

// RemoveLink drops a neighbor link and its routing state. Plain entries
// that pointed along the dead link stop being control-plane inputs for
// the surviving neighbors, so the forwarded aggregates they justified are
// retracted instead of lingering as over-subscription. The per-link
// propagation dedup state (advFwd, the per-client records' fwdTo)
// forgets the dead hop too, so a later AddLink — to the same
// rejoining broker or to a repair parent — re-offers everything instead
// of assuming the dead link's deliveries happened.
func (b *Broker) RemoveLink(peer wire.BrokerID) error {
	return b.exec(func() {
		hop := wire.BrokerHop(peer)
		if old, ok := b.links[peer]; ok {
			if _, enc := old.(transport.FrameEncoder); enc {
				b.encLinks--
			}
		}
		delete(b.links, peer)
		delete(b.out.pending, peer)
		b.sendErrs.reset(hop)
		removed := b.subs.RemoveHop(hop)
		b.advs.RemoveHop(hop)
		b.fwd.DropHop(hop)
		for _, e := range removed {
			if !b.isPerClientEntry(e) {
				b.aggregateEntryRemoved(e)
			}
		}
		b.scrubHopState(hop)
	})
}

// scrubHopState forgets a dead hop from the propagation dedup state, and
// garbage collects the per-client records this broker no longer lies on
// the delivery path of (no live row is left and the client is not local).
// Runs on the broker goroutine from RemoveLink.
func (b *Broker) scrubHopState(hop wire.Hop) {
	hopStr := hop.String()
	for key, sent := range b.advFwd {
		delete(sent, hopStr)
		if len(sent) == 0 {
			delete(b.advFwd, key)
		}
	}
	for key, rec := range b.fwdSubs {
		rec.fwdTo = slices.DeleteFunc(rec.fwdTo, func(h wire.Hop) bool { return h == hop })
		if _, local := b.clients[rec.sub.Client]; local {
			continue
		}
		if len(b.subs.ClientEntries(rec.sub.Client, rec.sub.ID)) > 0 {
			continue
		}
		delete(b.fwdSubs, key)
		delete(b.fetched, key)
		delete(b.pending, key)
	}
}

// Neighbors returns the neighbor broker IDs (diagnostics).
func (b *Broker) Neighbors() []wire.BrokerID {
	var out []wire.BrokerID
	_ = b.exec(func() {
		for id := range b.links {
			out = append(out, id)
		}
	})
	return out
}

// Barrier waits until every task queued before the call has been
// processed. Used by tests and Network.Settle to flush in-flight traffic.
func (b *Broker) Barrier() {
	_ = b.exec(func() {})
}

// SubEntries returns a snapshot of the subscription routing table in
// deterministic order (diagnostics and the control-plane equivalence
// tests).
func (b *Broker) SubEntries() []routing.Entry {
	var out []routing.Entry
	_ = b.exec(func() { out = b.subs.All() })
	return out
}

// TableSizes returns the subscription and advertisement table sizes
// (used by the ablation benchmarks).
func (b *Broker) TableSizes() (subs, advs int) {
	_ = b.exec(func() {
		subs = b.subs.Len()
		advs = b.advs.Len()
	})
	return subs, advs
}

// Stats returns a snapshot of the broker's counters.
func (b *Broker) Stats() Stats {
	s := Stats{Processed: make(map[wire.Type]uint64)}
	_ = b.exec(func() {
		for typ, n := range b.processed {
			if n != 0 {
				s.Processed[wire.Type(typ)] = n
			}
		}
		s.SubEntries = b.subs.Len()
		s.AdvEntries = b.advs.Len()
		s.SubIndex = b.subs.IndexStats()
		s.AdvIndex = b.advs.IndexStats()
		s.MailboxDepth = b.box.len() + b.batchRemaining
		s.BatchesProcessed = b.batchDepth.Count()
		s.MaxBatchSize = int(b.batchDepth.Max())
		s.MeanBatchSize = b.batchDepth.Mean()
		s.BufferDrops = b.bufferDrops
		s.RelocationsStarted = b.relocStarted
		s.RelocationsCompleted = b.relocCompleted
		s.RelocationsExpired = b.relocExpired
		s.ReplayBatches = b.replaySizes.Count()
		s.ReplayMeanItems = b.replaySizes.Mean()
		s.ReplayMaxItems = b.replaySizes.Max()
		s.ControlSubsSent = b.ctrlSubsSent
		s.ControlUnsubsSent = b.ctrlUnsubsSent
		s.Forwarder = b.fwd.Stats()
		s.Mailbox = b.box.flowStats()
		s.FlushMaxBurst = int(b.flushDepth.Max())
		s.FlushMeanBurst = b.flushDepth.Mean()
		s.LinkSendErrors, s.LinkSendErrorsTotal = b.sendErrs.snapshot()
		for id, l := range b.links {
			r, ok := l.(flow.Reporter)
			if !ok {
				continue
			}
			fs := r.FlowStats()
			if s.LinkFlow == nil {
				s.LinkFlow = make(map[wire.BrokerID]flow.Stats)
			}
			s.LinkFlow[id] = fs
			s.LinkCreditStalls += fs.CreditStalls
			s.LinkShedNewest += fs.ShedNewest
			if fs.HighWater > s.LinkQueueHighWater {
				s.LinkQueueHighWater = fs.HighWater
			}
		}
	})
	return s
}

// send queues a message for a hop (broker link or local client). Link
// writes are deferred into the per-hop outbox and flushed at the next
// batch boundary, so a batch fans out as one burst per link while the
// per-link order of all message types matches handler order exactly. Only
// called from the run goroutine.
func (b *Broker) send(hop wire.Hop, m wire.Message) {
	if hop.IsClient() {
		// Client hops are only used for deliveries, handled by deliverTo.
		return
	}
	// No links[id] check here: during Connect the peer's inbound pipe can
	// deliver before this broker's AddLink registers the send side, and a
	// handler response to that traffic must not be lost — callers have
	// already recorded the hop in their propagation dedup maps, so a drop
	// here would be permanent. The burst stays queued until the link
	// appears (flushOutbox retains it); RemoveLink discards the queue of a
	// peer that is gone for good.
	id := hop.Broker
	q := b.out.pending[id]
	if len(q) == 0 {
		b.out.order = append(b.out.order, id)
	}
	b.out.pending[id] = append(q, m)
}

// broadcast queues m for every neighbor link except the excluded hop,
// encoding once at the first frame-encoding destination (a fan-out that
// only crosses in-process links serializes nothing).
func (b *Broker) broadcast(m wire.Message, except wire.Hop) {
	for id := range b.links {
		if !except.IsClient() && id == except.Broker {
			continue
		}
		b.maybePreencode(id, &m)
		b.send(wire.BrokerHop(id), m)
	}
}

// maybePreencode caches m's wire frame before it is queued for a
// frame-encoding peer, so a fan-out serializes at most once and message
// copies enqueued for later hops inherit the cached frame. The
// encode-once policy lives only here: the publish visitor and broadcast
// share it.
func (b *Broker) maybePreencode(peer wire.BrokerID, m *wire.Message) {
	if b.encLinks == 0 || m.Frame != nil {
		return
	}
	if _, enc := b.links[peer].(transport.FrameEncoder); enc {
		_ = wire.Preencode(m)
	}
}

// neighborHops lists all broker hops except the given one.
func (b *Broker) neighborHops(except wire.Hop) []wire.Hop {
	out := make([]wire.Hop, 0, len(b.links))
	for id := range b.links {
		if !except.IsClient() && id == except.Broker {
			continue
		}
		out = append(out, wire.BrokerHop(id))
	}
	return out
}

// subKey builds the map key for a client subscription.
func subKey(c wire.ClientID, id wire.SubID) string {
	return string(c) + "/" + string(id)
}

// String implements fmt.Stringer.
func (b *Broker) String() string {
	return fmt.Sprintf("broker(%s)", b.id)
}
