package broker

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/wire"
)

// dispatch routes one inbound message to its handler. It runs on the
// broker goroutine.
func (b *Broker) dispatch(in inbound) {
	switch in.Msg.Type {
	case wire.TypePublish:
		if in.Msg.Notif != nil {
			b.handlePublish(in.From, *in.Msg.Notif, in.Msg)
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
		cs.deliver = deliver
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
		cs.deliver = nil
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
		b.handlePublish(wire.ClientHop(client), n, wire.Message{})
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
		b.knownSubs[sub.Key()] = sub
		b.propagateClientSub(sub, clientHop)
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
	delete(cs.subs, id)
	delete(cs.locExact, id)
	key := subKey(client, id)
	removed := b.subs.RemoveClient(client, id)
	delete(b.pending, key)
	delete(b.fetched, key) // the sub is gone; drop its fetch-dedup entry too
	switch {
	case state.sub.LocDependent:
		b.teardownLocSub(key)
	case state.sub.Mobile():
		b.retractClientSub(state.sub)
	default:
		for _, e := range removed {
			b.aggregateEntryRemoved(e)
		}
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
	switch {
	case sub.LocDependent:
		key := sub.Key()
		b.subs.RemoveClient(sub.Client, sub.ID)
		b.teardownLocSub(key)
	case sub.Client != "":
		b.subs.RemoveClient(sub.Client, sub.ID)
		b.retractClientSub(sub)
	default:
		e := routing.Entry{Filter: sub.Filter, Hop: from}
		if b.subs.Remove(e) {
			b.aggregateEntryRemoved(e)
		}
	}
}

// handleClientSubscribe implements per-client (mobile) subscription
// propagation and the relocation junction test of Section 4.1.
func (b *Broker) handleClientSubscribe(from wire.Hop, sub wire.Subscription) {
	key := sub.Key()
	b.knownSubs[key] = sub

	olds := b.oldEntries(sub.Client, sub.ID, from)
	// Record the new-path direction.
	b.subs.Add(routing.Entry{Filter: sub.Filter, Hop: from, Client: sub.Client, SubID: sub.ID})

	if sub.Relocate && len(olds) > 0 {
		// This broker lies on the old delivery path: it is the junction
		// broker (B4 in Figure 5). Divert new notifications to the new
		// path and fetch the buffered ones from the old location.
		b.fetched[key] = sub.RelocEpoch
		for _, old := range olds {
			b.subs.Remove(old)
			fetch := wire.Fetch{
				Client:   sub.Client,
				ID:       sub.ID,
				Filter:   sub.Filter,
				LastSeq:  sub.LastSeq,
				Junction: b.id,
				Epoch:    sub.RelocEpoch,
			}
			if old.Hop.IsClient() {
				// The old path ends here: this broker is also the old
				// border broker. Replay locally.
				b.replayFromCounterpart(fetch, from)
			} else {
				b.send(old.Hop, wire.NewFetch(fetch))
			}
		}
		return
	}
	b.propagateClientSub(sub, from)
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

// propagateClientSub forwards a per-client subscription toward matching
// advertisers; when no advertisements exist at all, it floods to all
// neighbors (advertisement-free operation). Pre-subscribing subscriptions
// always flood, planting entries at every broker so any future border
// broker is already a junction.
func (b *Broker) propagateClientSub(sub wire.Subscription, from wire.Hop) {
	var hops []wire.Hop
	if sub.Presubscribe {
		hops = b.neighborHops(from)
	} else {
		hops = b.subForwardHops(sub.Filter, from)
	}
	key := sub.Key()
	fwd := b.clientSubFwd[key]
	seen := make(map[string]bool, len(fwd))
	for _, h := range fwd {
		seen[h.String()] = true
	}
	for _, h := range hops {
		if seen[h.String()] {
			continue
		}
		fwd = append(fwd, h)
		b.send(h, wire.NewSubscribe(sub))
	}
	b.clientSubFwd[key] = fwd
}

// subForwardHops computes the hops a subscription should travel along:
// toward overlapping advertisements if any advertisements are known,
// otherwise every neighbor (excluding the arrival hop).
func (b *Broker) subForwardHops(f filter.Filter, from wire.Hop) []wire.Hop {
	if b.advs.Len() == 0 {
		return b.neighborHops(from)
	}
	var out []wire.Hop
	for _, h := range b.advs.HopsOverlapping(f, from) {
		if !h.IsClient() {
			out = append(out, h)
		}
	}
	return out
}

// retractClientSub withdraws a per-client subscription along the hops it
// was forwarded to.
func (b *Broker) retractClientSub(sub wire.Subscription) {
	key := sub.Key()
	for _, h := range b.clientSubFwd[key] {
		b.send(h, wire.NewUnsubscribe(sub))
	}
	delete(b.clientSubFwd, key)
	delete(b.knownSubs, key)
	delete(b.fetched, key)
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
	if _, ok := b.knownSubs[subKey(e.Client, e.SubID)]; ok {
		return true
	}
	if _, ok := b.locSubs[subKey(e.Client, e.SubID)]; ok {
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
	// Flush known per-client subscriptions toward the new advertiser if
	// they overlap and have not traveled that way yet.
	b.flushSubsToward(from, adv.Filter)
}

func (b *Broker) handleUnadvertise(from wire.Hop, adv wire.Subscription) {
	if !b.advs.Remove(routing.Entry{Filter: adv.Filter, Hop: from, Client: adv.Client, SubID: adv.ID}) {
		return
	}
	key := "adv:" + adv.Key() + ":" + adv.Filter.ID()
	delete(b.advFwd, key)
	b.broadcast(wire.NewUnadvertise(adv), from)
}

// flushSubsToward forwards already-known per-client subscriptions toward a
// newly learned advertisement direction.
func (b *Broker) flushSubsToward(advHop wire.Hop, advFilter filter.Filter) {
	if advHop.IsClient() {
		// Local producers: subscriptions need not travel anywhere to reach
		// them; publish routing consults the local table directly.
		return
	}
	for key, sub := range b.knownSubs {
		overlap := sub.Filter.Overlaps(advFilter)
		if !overlap {
			continue
		}
		already := false
		for _, h := range b.clientSubFwd[key] {
			if h == advHop {
				already = true
				break
			}
		}
		// Do not forward a subscription back where it came from.
		cameFrom := false
		for _, e := range b.subs.ClientEntries(sub.Client, sub.ID) {
			if e.Hop == advHop {
				cameFrom = true
				break
			}
		}
		if already || cameFrom {
			continue
		}
		b.clientSubFwd[key] = append(b.clientSubFwd[key], advHop)
		b.send(advHop, wire.NewSubscribe(sub))
	}
	for key, ls := range b.locSubs {
		b.flushLocSubToward(key, ls, advHop, advFilter)
	}
}

// ---------------------------------------------------------------------------
// Publish routing and delivery.
// ---------------------------------------------------------------------------

// handlePublish routes one publish. env is the inbound wire envelope when
// the publish arrived over a link (it may carry a cached frame — the
// decoded TCP frame or an upstream pre-encoding — which forwarding reuses
// so a transit broker never re-serializes); local client publishes pass a
// zero Message and the envelope is built lazily at the first broker hop.
func (b *Broker) handlePublish(from wire.Hop, n message.Notification, env wire.Message) {
	if b.opts.Strategy == routing.Flooding {
		if env.Type == wire.TypeInvalid {
			env = wire.NewPublish(n)
		}
		b.broadcast(env, from)
		b.deliverFlooded(n)
		return
	}
	// Deduplicate subscriptions with the broker's epoch-stamped scratch
	// map instead of a fresh allocation per publish (EachRoute already
	// visits each broker hop once), and build the forwarded wire message
	// once: every neighbor link shares the same envelope (and, when any
	// link serializes frames, the same encoding). The pre-bound visitor
	// keeps the hot path free of closure and result slice allocations.
	// Epochs invalidate scratch entries but never delete them; shed the
	// map when client churn has grown it far beyond any live fan-out, so a
	// long-running broker's dedup state stays bounded.
	if len(b.pubSeen.subs) > pubScratchShedSize {
		clear(b.pubSeen.subs)
	}
	b.pubSeen.epoch++
	b.pub.n = n
	b.pub.from = from
	b.pub.msg = env
	b.pub.deliveries = b.pub.deliveries[:0]
	b.subs.EachRoute(n, from, b.pub.visit)
	for _, ref := range b.pub.deliveries {
		b.deliverTo(ref.client, ref.id, n, false)
	}
	if cap(b.pub.deliveries) > maxOutboxRetainCap {
		b.pub.deliveries = nil // shed spike-sized buffers like the outbox does
	} else {
		b.pub.deliveries = b.pub.deliveries[:0]
	}
	b.pub.msg = wire.Message{}
	b.pub.n = message.Notification{}
}

// visitPublishEntry routes one table row EachRoute visits for the publish
// carried in b.pub: local subscriptions are queued for delivery after the
// visit (see pubCtx.deliveries), broker hops — one row each — receive the
// shared fan-out envelope through the outbox. For publishes that arrived
// over a link, b.pub.msg is the inbound envelope (possibly carrying the
// decoded frame for zero-copy forwarding); for local client publishes it
// is built lazily at the first broker hop. Bound once as b.pub.visit.
func (b *Broker) visitPublishEntry(e *routing.Entry) {
	s := &b.pubSeen
	if e.Hop.IsClient() {
		ref := subRef{client: e.Client, id: e.SubID}
		if s.subs[ref] == s.epoch {
			return
		}
		s.subs[ref] = s.epoch
		b.pub.deliveries = append(b.pub.deliveries, ref)
		return
	}
	if b.pub.msg.Type == wire.TypeInvalid {
		b.pub.msg = wire.NewPublish(b.pub.n)
	}
	b.maybePreencode(e.Hop.Broker, &b.pub.msg)
	b.send(e.Hop, b.pub.msg)
}

// deliverFlooded performs client-side filtering under the flooding
// strategy: every attached client's subscriptions are evaluated locally.
func (b *Broker) deliverFlooded(n message.Notification) {
	for _, cs := range b.clients {
		for id, st := range cs.subs {
			if cs.clientFilter(id, st).Matches(n) {
				b.deliverTo(cs.id, id, n, false)
			}
		}
	}
}

// deliverTo hands a notification to a local client subscription, assigning
// the per-subscription sequence number; disconnected clients accumulate
// into the virtual counterpart buffer, and relocating subscriptions (at
// the new border broker) buffer until the replay arrives.
//
// The caller has established that n matches the subscription's exact
// client-side filter F0 (clientState.clientFilter): by matching the client-hop
// routing entry, which carries exactly that filter — widened entries of
// location-dependent subscriptions only ever point at broker hops — or,
// under flooding, by evaluating it. Notifications buffered while a
// relocation is pending were admitted the same way.
func (b *Broker) deliverTo(client wire.ClientID, id wire.SubID, n message.Notification, replayed bool) {
	cs, ok := b.clients[client]
	if !ok {
		return
	}
	st, ok := cs.subs[id]
	if !ok {
		return
	}
	// len check first: no relocation in progress (the common case) must
	// not pay the subKey concatenation per delivery.
	if len(b.pending) != 0 && !replayed {
		if p, relocating := b.pending[subKey(client, id)]; relocating {
			p.notifs = append(p.notifs, n)
			if len(p.notifs) > b.opts.RelocBufferCap {
				p.notifs = p.notifs[1:]
				b.relocDrops++
			}
			return
		}
	}
	item := wire.SeqNotification{Seq: st.nextSeq, Notif: n}
	st.nextSeq++
	if !cs.connected || cs.deliver == nil {
		st.buffer = append(st.buffer, item)
		if len(st.buffer) > b.opts.MaxBufferPerSub {
			st.buffer = st.buffer[1:]
			st.overflow++
		}
		return
	}
	if b.opts.Counter != nil {
		b.opts.Counter.Inc(metrics.CategoryDeliver)
	}
	cs.deliver(wire.Deliver{Client: client, ID: id, Item: item, Replayed: replayed})
}
