package broker

import (
	"fmt"
	"slices"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/wire"
)

// dispatch routes one inbound message to its handler. It runs on the
// broker goroutine.
func (b *Broker) dispatch(in *inbound) {
	switch in.Msg.Type {
	case wire.TypePublish:
		if in.Msg.Notif != nil {
			b.handlePublish(in.From, in.Msg.Notif, &in.Msg)
		}
	case wire.TypeSubscribe:
		if in.Msg.Sub != nil {
			b.handleSubscribe(in.From, *in.Msg.Sub)
		}
	case wire.TypeUnsubscribe:
		if in.Msg.Sub != nil {
			b.handleUnsubscribe(in.From, *in.Msg.Sub)
		}
	case wire.TypeAdvertise:
		if in.Msg.Sub != nil {
			b.handleAdvertise(in.From, *in.Msg.Sub)
		}
	case wire.TypeUnadvertise:
		if in.Msg.Sub != nil {
			b.handleUnadvertise(in.From, *in.Msg.Sub)
		}
	case wire.TypeFetch:
		if in.Msg.Fetch != nil {
			b.handleFetch(in.From, *in.Msg.Fetch)
		}
	case wire.TypeReplay:
		if in.Msg.Replay != nil {
			b.handleReplay(in.From, *in.Msg.Replay)
		}
	case wire.TypeLocUpdate:
		if in.Msg.Loc != nil {
			b.handleLocUpdate(in.From, *in.Msg.Loc)
		}
	}
}

// ---------------------------------------------------------------------------
// Client-facing operations (posted through the mailbox by package core).
// ---------------------------------------------------------------------------

// AttachClient attaches a client to this (border) broker. For a roaming
// client reattaching elsewhere, the relocation is triggered by the
// subsequent relocation re-subscriptions, not by attach itself.
func (b *Broker) AttachClient(id wire.ClientID, deliver DeliverFunc) error {
	return b.attach(id, deliver, nil)
}

// attach attaches a client whose deliveries go to deliver, or to link when
// it is set.
func (b *Broker) attach(id wire.ClientID, deliver DeliverFunc, link transport.DeliverySender) error {
	var err error
	execErr := b.exec(func() {
		if cs, ok := b.clients[id]; ok && cs.connected {
			err = fmt.Errorf("%w: %s", ErrAlreadyAttached, id)
			return
		}
		cs, ok := b.clients[id]
		if !ok {
			cs = &clientState{
				id:   id,
				subs: make(map[wire.SubID]*clientSub),
				advs: make(map[wire.SubID]filter.Filter),
			}
			b.clients[id] = cs
		}
		cs.connected = true
		cs.deliver, cs.link = deliver, link
	})
	if execErr != nil {
		return execErr
	}
	return err
}

// DetachClient disconnects a client without unsubscribing it: its
// subscriptions stay active and deliveries are buffered in the virtual
// counterpart until the client reappears here or relocates elsewhere
// (Section 4.1).
func (b *Broker) DetachClient(id wire.ClientID) error {
	var err error
	execErr := b.exec(func() {
		cs, ok := b.clients[id]
		if !ok {
			err = fmt.Errorf("%w: %s", ErrUnknownClient, id)
			return
		}
		cs.connected = false
		cs.deliver, cs.link = nil, nil
	})
	if execErr != nil {
		return execErr
	}
	return err
}

// Subscribe registers a client subscription. The subscription's flags
// select its class: plain (aggregate propagation), relocatable (Relocate
// handled on MoveTo), or location-dependent (LocDependent).
func (b *Broker) Subscribe(sub wire.Subscription) error {
	var err error
	execErr := b.exec(func() { err = b.localSubscribe(sub) })
	if execErr != nil {
		return execErr
	}
	return err
}

// Unsubscribe withdraws a client subscription.
func (b *Broker) Unsubscribe(client wire.ClientID, id wire.SubID) error {
	var err error
	execErr := b.exec(func() { err = b.localUnsubscribe(client, id) })
	if execErr != nil {
		return execErr
	}
	return err
}

// Publish injects a notification from a locally attached client.
func (b *Broker) Publish(client wire.ClientID, n message.Notification) error {
	return b.exec(func() {
		n := n // a copy of the closure's own: &n must not move it to the heap
		b.handlePublish(wire.ClientHop(client), &n, nil)
	})
}

// Advertise announces the notifications a local producer will publish.
func (b *Broker) Advertise(client wire.ClientID, id wire.SubID, f filter.Filter) error {
	return b.exec(func() {
		cs, ok := b.clients[client]
		if ok {
			cs.advs[id] = f
		}
		b.handleAdvertise(wire.ClientHop(client), wire.Subscription{
			Filter: f, Client: client, ID: id,
		})
	})
}

// Unadvertise withdraws an advertisement.
func (b *Broker) Unadvertise(client wire.ClientID, id wire.SubID) error {
	return b.exec(func() {
		cs, ok := b.clients[client]
		if !ok {
			return
		}
		f, ok := cs.advs[id]
		if !ok {
			return
		}
		delete(cs.advs, id)
		b.handleUnadvertise(wire.ClientHop(client), wire.Subscription{
			Filter: f, Client: client, ID: id,
		})
	})
}

// ---------------------------------------------------------------------------
// Subscription handling.
// ---------------------------------------------------------------------------

// localSubscribe processes a subscription issued by a locally attached
// client. Runs on the broker goroutine.
func (b *Broker) localSubscribe(sub wire.Subscription) error {
	cs, ok := b.clients[sub.Client]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownClient, sub.Client)
	}
	if _, dup := cs.subs[sub.ID]; dup && !sub.Relocate {
		return fmt.Errorf("%w: %s/%s", ErrDuplicateSub, sub.Client, sub.ID)
	}
	if sub.LocDependent {
		return b.localSubscribeLocDep(cs, sub)
	}
	if sub.Relocate {
		return b.localRelocateSubscribe(cs, sub)
	}
	clientHop := wire.ClientHop(sub.Client)
	state := &clientSub{sub: sub, nextSeq: sub.LastSeq + 1}
	cs.subs[sub.ID] = state

	b.subs.Add(routing.Entry{
		Filter: sub.Filter,
		Hop:    clientHop,
		Client: sub.Client,
		SubID:  sub.ID,
	})
	if sub.Mobile() {
		b.offerAll(b.record(sub))
	} else {
		b.aggregateEntryAdded(routing.Entry{Filter: sub.Filter, Hop: clientHop})
	}
	return nil
}

func (b *Broker) localUnsubscribe(client wire.ClientID, id wire.SubID) error {
	cs, ok := b.clients[client]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownClient, client)
	}
	state, ok := cs.subs[id]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrUnknownSub, client, id)
	}
	b.dropSub(cs, id)
	delete(cs.locExact, id)
	removed := b.subs.RemoveClient(client, id)
	delete(b.pending, subKey(client, id))
	if state.sub.LocDependent || state.sub.Mobile() {
		b.withdraw(state.sub)
		return nil
	}
	for _, e := range removed {
		b.aggregateEntryRemoved(e)
	}
	return nil
}

// handleSubscribe processes a subscription arriving over a link.
func (b *Broker) handleSubscribe(from wire.Hop, sub wire.Subscription) {
	switch {
	case sub.LocDependent:
		b.handleLocSubscribe(from, sub)
	case sub.Client != "":
		b.handleClientSubscribe(from, sub)
	default:
		// Aggregate subscription from a neighbor broker.
		e := routing.Entry{Filter: sub.Filter, Hop: from}
		if b.subs.Add(e) {
			b.aggregateEntryAdded(e)
		}
	}
}

func (b *Broker) handleUnsubscribe(from wire.Hop, sub wire.Subscription) {
	if sub.Client != "" {
		// Per-client (mobile or location-dependent): only those cross a
		// link with their client identity.
		b.subs.RemoveClient(sub.Client, sub.ID)
		b.withdraw(sub)
		return
	}
	e := routing.Entry{Filter: sub.Filter, Hop: from}
	if b.subs.Remove(e) {
		b.aggregateEntryRemoved(e)
	}
}

// handleClientSubscribe implements per-client (mobile) subscription
// propagation and the relocation junction test of Section 4.1.
func (b *Broker) handleClientSubscribe(from wire.Hop, sub wire.Subscription) {
	rec := b.record(sub)
	olds := b.oldEntries(sub.Client, sub.ID, from)
	// Record the new-path direction.
	b.subs.Add(routing.Entry{Filter: sub.Filter, Hop: from, Client: sub.Client, SubID: sub.ID})
	if sub.Relocate && len(olds) > 0 {
		// This broker lies on the old delivery path: it is the junction
		// broker (B4 in Figure 5).
		b.divert(sub, olds, from)
		return
	}
	b.offerAll(rec)
}

// oldEntries returns the routing entries for the client subscription that
// point somewhere other than the arrival hop (the old delivery path).
func (b *Broker) oldEntries(c wire.ClientID, id wire.SubID, from wire.Hop) []routing.Entry {
	var out []routing.Entry
	for _, e := range b.subs.ClientEntries(c, id) {
		if e.Hop != from {
			out = append(out, e)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Per-client subscription forwarding.
// ---------------------------------------------------------------------------

// fwdSub is this broker's record of a subscription that travels per
// client instead of by aggregate: a mobile one, whose junction detection
// needs the client identity at every hop (Section 4.1), or a
// location-dependent one, whose widening differs per hop (Section 5).
type fwdSub struct {
	sub   wire.Subscription // as received (a local relocation's without its one-shot flags); a location-dependent Filter holds the marker template
	fwdTo []wire.Hop        // hops the subscription was forwarded to
	// Location-dependent only: the widening step of this broker's table
	// entry, the instantiated entry, and the hop toward the consumer.
	step  int
	entry filter.Filter
	from  wire.Hop
}

// record stores sub as the subscription's record, keeping the hops an
// earlier arrival of the same subscription was already forwarded to.
func (b *Broker) record(sub wire.Subscription) *fwdSub {
	rec := b.fwdSubs[sub.Key()]
	if rec == nil {
		rec = &fwdSub{}
		b.fwdSubs[sub.Key()] = rec
	}
	rec.sub = sub
	return rec
}

// offer is the one rule for whether a per-client subscription travels to
// a hop. It never goes to a client, twice to one hop, back along one of
// its own rows (toward the consumer), or anywhere once this broker holds
// no row for it. Otherwise it goes when it pre-subscribes (mobile only),
// when no advertisement is known (advertisement-free flooding), or when
// an advertisement from the hop overlaps it. Every trigger asks it: an
// arrival for every neighbor (offerAll), AddLink and a new advertisement
// for their hop (offerEach).
func (b *Broker) offer(rec *fwdSub, hop wire.Hop) {
	if hop.IsClient() || slices.Contains(rec.fwdTo, hop) {
		return
	}
	sub := rec.sub
	overlap, presubscribe := sub.Filter, sub.Presubscribe
	if sub.LocDependent {
		// Any location could become relevant: drop the marker. A
		// location-dependent subscription never roams, so it does not
		// pre-subscribe even when its flags ask to.
		overlap, presubscribe = sub.Filter.Without(sub.LocAttr), false
	}
	if !presubscribe && b.advs.Len() > 0 && !b.advs.OverlapsHop(overlap, hop) {
		return
	}
	rows := b.subs.ClientEntries(sub.Client, sub.ID)
	if len(rows) == 0 {
		return
	}
	for _, e := range rows {
		if e.Hop == hop {
			return
		}
	}
	rec.fwdTo = append(rec.fwdTo, hop)
	if sub.LocDependent {
		sub = b.advanceStep(sub)
	}
	b.send(hop, wire.NewSubscribe(sub))
}

// offerAll offers a newly arrived subscription to every neighbor; the
// arrival hop is skipped because the row just added points at it.
func (b *Broker) offerAll(rec *fwdSub) {
	for id := range b.links {
		b.offer(rec, wire.BrokerHop(id))
	}
}

// offerEach offers every record to one hop: a new link (AddLink) or a new
// advertisement direction.
func (b *Broker) offerEach(hop wire.Hop) {
	for _, rec := range b.fwdSubs {
		b.offer(rec, hop)
	}
}

// withdraw drops a per-client subscription's record and sends the
// unsubscribe along every hop the subscription was forwarded to.
func (b *Broker) withdraw(unsub wire.Subscription) {
	key := unsub.Key()
	delete(b.fetched, key)
	rec, ok := b.fwdSubs[key]
	if !ok {
		return
	}
	delete(b.fwdSubs, key)
	if rec.sub.LocDependent {
		// A location-dependent unsubscribe names the subscription as this
		// broker holds it (its current location).
		unsub = rec.sub
	}
	for _, h := range rec.fwdTo {
		b.send(h, wire.NewUnsubscribe(unsub))
	}
}

// divert makes this broker the junction of a relocation (Section 4.1): the
// old delivery path's entries are removed, so new notifications follow
// the row toward the new location, and a fetch travels along each old
// entry to collect the buffered ones. An old entry pointing at a local
// client means this broker is also the old border broker: it replays
// toward the new path itself.
func (b *Broker) divert(sub wire.Subscription, olds []routing.Entry, toward wire.Hop) {
	b.fetched[sub.Key()] = sub.RelocEpoch
	fetch := wire.Fetch{
		Client:   sub.Client,
		ID:       sub.ID,
		Filter:   sub.Filter,
		LastSeq:  sub.LastSeq,
		Junction: b.id,
		Epoch:    sub.RelocEpoch,
	}
	for _, old := range olds {
		b.subs.Remove(old)
		if old.Hop.IsClient() {
			b.replayFromCounterpart(fetch, toward)
		} else {
			b.send(old.Hop, wire.NewFetch(fetch))
		}
	}
}

// aggregateEntryAdded feeds one new plain routing entry through the
// delta-based forwarding control plane: every neighbor except the entry's
// own hop gains the filter as an input (the aggregate forwarded toward a
// neighbor excludes entries pointing at that neighbor), and whatever
// sub/unsub diff the strategy derives goes straight on the wire. No table
// scan happens here — the forwarder tracks its inputs per neighbor, so a
// subscribe, unsubscribe, or roaming handoff costs work proportional to
// the change, not to the table.
func (b *Broker) aggregateEntryAdded(e routing.Entry) {
	for _, n := range b.neighborHops(e.Hop) {
		b.sendForwardUpdate(b.fwd.AddFilter(n, e.Filter))
	}
}

// aggregateEntryRemoved is the removal half of the delta control plane.
func (b *Broker) aggregateEntryRemoved(e routing.Entry) {
	for _, n := range b.neighborHops(e.Hop) {
		b.sendForwardUpdate(b.fwd.RemoveFilter(n, e.Filter))
	}
}

// sendForwardUpdate puts a forwarder diff on the wire toward its neighbor
// and counts the administrative traffic (Stats.ControlSubsSent /
// ControlUnsubsSent, the per-strategy admin-message measure of Figure 9).
func (b *Broker) sendForwardUpdate(u routing.Update) {
	for _, f := range u.Subscribe {
		b.ctrlSubsSent++
		b.send(u.Hop, wire.NewSubscribe(wire.Subscription{Filter: f}))
	}
	for _, f := range u.Unsubscribe {
		b.ctrlUnsubsSent++
		b.send(u.Hop, wire.NewUnsubscribe(wire.Subscription{Filter: f}))
	}
}

// aggregateInputs collects the filters of plain entries not pointing at
// the given neighbor — the authoritative input list for that neighbor's
// forwarding state. Only link churn (AddLink's seed/repair Recompute)
// scans the table through this; steady-state subscription churn flows
// through the per-entry delta helpers above.
func (b *Broker) aggregateInputs(n wire.Hop) []filter.Filter {
	var out []filter.Filter
	for _, e := range b.subs.EntriesNotFrom(n) {
		if b.isPerClientEntry(e) {
			continue
		}
		out = append(out, e.Filter)
	}
	return out
}

// isPerClientEntry reports whether the entry belongs to a subscription
// that propagates per-client (mobile or location-dependent) rather than
// through aggregation.
func (b *Broker) isPerClientEntry(e routing.Entry) bool {
	if e.Client == "" {
		return false
	}
	if _, ok := b.fwdSubs[subKey(e.Client, e.SubID)]; ok {
		return true
	}
	// Local plain client subscriptions carry client identity for delivery
	// but propagate via aggregation.
	if cs, ok := b.clients[e.Client]; ok {
		if st, ok := cs.subs[e.SubID]; ok {
			return st.sub.Mobile() || st.sub.LocDependent
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Advertisements.
// ---------------------------------------------------------------------------

func (b *Broker) handleAdvertise(from wire.Hop, adv wire.Subscription) {
	if !b.advs.Add(routing.Entry{Filter: adv.Filter, Hop: from, Client: adv.Client, SubID: adv.ID}) {
		return
	}
	// Advertisements flood the whole overlay so every broker knows which
	// hops lead toward which producers.
	key := "adv:" + adv.Key() + ":" + adv.Filter.ID()
	sent := b.advFwd[key]
	if sent == nil {
		sent = make(map[string]bool)
		b.advFwd[key] = sent
	}
	for _, h := range b.neighborHops(from) {
		if sent[h.String()] {
			continue
		}
		sent[h.String()] = true
		b.send(h, wire.NewAdvertise(adv))
	}
	// Known per-client subscriptions may now have a reason to travel
	// toward the new advertiser.
	b.offerEach(from)
}

func (b *Broker) handleUnadvertise(from wire.Hop, adv wire.Subscription) {
	if !b.advs.Remove(routing.Entry{Filter: adv.Filter, Hop: from, Client: adv.Client, SubID: adv.ID}) {
		return
	}
	key := "adv:" + adv.Key() + ":" + adv.Filter.ID()
	delete(b.advFwd, key)
	b.broadcast(wire.NewUnadvertise(adv), from)
}

// ---------------------------------------------------------------------------
// Publish routing and delivery.
// ---------------------------------------------------------------------------

// handlePublish routes one publish. env is the inbound wire envelope when
// the publish arrived over a link (it may carry a cached frame — the
// decoded TCP frame or an upstream pre-encoding — which forwarding reuses
// so a transit broker never re-serializes, and which deliveries to remote
// clients splice in); local client publishes pass nil and the envelope is
// built lazily at the first broker hop. n is the envelope's notification.
// Neither pointer is kept past the call.
func (b *Broker) handlePublish(from wire.Hop, n *message.Notification, env *wire.Message) {
	if b.opts.Strategy == routing.Flooding {
		var m wire.Message
		if env != nil {
			m = *env
		} else {
			m = wire.NewPublish(*n)
		}
		b.broadcast(m, from)
		b.deliverFlooded(*n, m.NotifBody())
		return
	}
	// Build the forwarded wire message once: every neighbor link shares
	// the same envelope (and, when any link serializes frames, the same
	// encoding). EachRoute visits each broker hop once; subscriptions are
	// de-duplicated by the publish mark in their owner-id state. The
	// pre-bound visitor keeps the hot path free of closure and result
	// slice allocations.
	b.pub.mark++
	b.pub.n = *n
	b.pub.from = from
	b.pub.msg = env
	b.pub.deliveries = b.pub.deliveries[:0]
	b.subs.EachRoute(*n, from, b.pub.visit)
	if len(b.pub.deliveries) > 0 {
		var body []byte
		if b.pub.msg != nil {
			body = b.pub.msg.NotifBody()
		}
		for _, owner := range b.pub.deliveries {
			o := &b.owned[owner]
			b.deliverTo(o.cs, o.st, *n, body)
		}
	}
	if cap(b.pub.deliveries) > maxOutboxRetainCap {
		b.pub.deliveries = nil // shed spike-sized buffers like the outbox does
	} else {
		b.pub.deliveries = b.pub.deliveries[:0]
	}
	b.pub.msg, b.pub.own = nil, wire.Message{}
	b.pub.n = message.Notification{}
}

// visitPublishEntry routes one table row EachRoute visits for the publish
// carried in b.pub: local subscriptions are queued for delivery after the
// visit (see pubCtx.deliveries), broker hops — one row each — receive the
// shared fan-out envelope through the outbox. For publishes that arrived
// over a link, b.pub.msg is the inbound envelope (possibly carrying the
// decoded frame for zero-copy forwarding); for local client publishes it
// is built lazily at the first broker hop. Bound once as b.pub.visit.
func (b *Broker) visitPublishEntry(e *routing.Entry, owner int) {
	if e.Hop.IsClient() {
		if o := b.ownedAt(e, owner); o != nil && o.seen != b.pub.mark {
			o.seen = b.pub.mark
			b.pub.deliveries = append(b.pub.deliveries, owner)
		}
		return
	}
	if b.pub.msg == nil {
		b.pub.own = wire.NewPublish(b.pub.n)
		b.pub.msg = &b.pub.own
	}
	b.maybePreencode(e.Hop.Broker, b.pub.msg)
	b.send(e.Hop, *b.pub.msg)
}

// ownedAt returns the delivery state of the local subscription owning a
// matched client-hop row, found by the row's owner id: a cached entry
// serves while no local subscription has been dropped or replaced since
// it was looked up and it names the row's identity (the table gives a
// freed owner id to the next new owner); otherwise the client and
// subscription maps answer, and the answer is cached. Nil when the row has
// no local subscription.
func (b *Broker) ownedAt(e *routing.Entry, owner int) *ownedSub {
	if owner >= len(b.owned) {
		b.owned = append(b.owned, make([]ownedSub, owner+1-len(b.owned))...)
	}
	o := &b.owned[owner]
	if o.st != nil && o.epoch == b.subsEpoch && o.st.sub.ID == e.SubID && o.cs.id == e.Client {
		return o
	}
	cs, ok := b.clients[e.Client]
	if !ok {
		return nil
	}
	st, ok := cs.subs[e.SubID]
	if !ok {
		return nil
	}
	o.cs, o.st, o.epoch = cs, st, b.subsEpoch
	return o
}

// deliverFlooded performs client-side filtering under the flooding
// strategy: every attached client's subscriptions are evaluated locally.
func (b *Broker) deliverFlooded(n message.Notification, body []byte) {
	for _, cs := range b.clients {
		for id, st := range cs.subs {
			if cs.clientFilter(id, st).Matches(n) {
				b.deliverTo(cs, st, n, body)
			}
		}
	}
}

// deliverTo hands a notification to a local client subscription, assigning
// the per-subscription sequence number; disconnected clients accumulate
// into the virtual counterpart buffer, and relocating subscriptions (at
// the new border broker) buffer until the replay arrives. Both buffers
// keep n.Clone(): a notification decoded from a TCP link shares its
// reader's chunks (message.Chunks), which a buffered copy must not pin.
// body, when non-nil, is n's canonical encoding, which a remote client's
// frame-encoding link splices into the delivery frame.
//
// The caller has established that n matches the subscription's exact
// client-side filter F0 (clientState.clientFilter): by matching the client-hop
// routing entry, which carries exactly that filter — widened entries of
// location-dependent subscriptions only ever point at broker hops — or,
// under flooding, by evaluating it. Notifications buffered while a
// relocation is pending were admitted the same way.
func (b *Broker) deliverTo(cs *clientState, st *clientSub, n message.Notification, body []byte) {
	if p := st.pending; p != nil {
		p.notifs = appendCapped(b, p.notifs, n.Clone(), b.opts.RelocBufferCap)
		return
	}
	item := wire.SeqNotification{Seq: st.nextSeq, Notif: n}
	st.nextSeq++
	if !cs.reachable() {
		item.Notif = n.Clone()
		st.buffer = appendCapped(b, st.buffer, item, b.opts.MaxBufferPerSub)
		return
	}
	b.handOver(cs, wire.Deliver{Client: cs.id, ID: st.sub.ID, Item: item}, body)
}

// handOver passes one item to a connected client and counts the delivery.
// body is as for deliverTo.
func (b *Broker) handOver(cs *clientState, d wire.Deliver, body []byte) {
	if b.opts.Counter != nil {
		b.opts.Counter.Inc(metrics.CategoryDeliver)
	}
	if cs.link != nil {
		// Send failures mean the link just died; the virtual counterpart
		// takes over as soon as the owner detaches the client, but the
		// failure is counted (and logged once) so a flapping client is
		// visible.
		if err := cs.link.SendDeliver(d, body); err != nil {
			b.sendErrs.record(b.id, wire.ClientHop(cs.id), err)
		}
		return
	}
	cs.deliver(d)
}

// appendCapped appends x to a per-subscription buffer holding at most max
// items: on overflow the oldest is dropped and counted in
// Stats.BufferDrops.
func appendCapped[T any](b *Broker, buf []T, x T, max int) []T {
	buf = append(buf, x)
	if len(buf) > max {
		buf = buf[1:]
		b.bufferDrops++
	}
	return buf
}
