package broker

import (
	"time"

	"repro/internal/routing"
	"repro/internal/wire"
)

// This file implements the physical-mobility relocation protocol of
// Section 4. The moving parts:
//
//   - The old border broker keeps a "virtual counterpart" of the roaming
//     client: its subscriptions stay in the routing tables and matching
//     notifications are buffered with continuing sequence numbers.
//   - When the client reattaches at a new border broker it re-issues each
//     subscription together with the last sequence number it received
//     (e.g. (C, F, 123) in the paper). The new border broker buffers live
//     deliveries and propagates the relocation subscription.
//   - The junction broker — the first broker on the propagation path that
//     already has a routing entry for (C, F) pointing elsewhere — diverts
//     new notifications onto the new path and sends a fetch request
//     (C, F, seq, B) along the old path.
//   - Brokers along the old path flip their (C, F) entries to point back
//     toward the junction as the fetch passes (preserving the invariant
//     that every entry points toward the client's current location).
//   - The old border broker replays the buffered notifications with
//     sequence numbers greater than the client's last; the replay travels
//     along the flipped path. The new border broker delivers the replayed
//     messages first, then its own buffered ones, preserving order.
//
// All relocation traffic uses ordinary FIFO broker links, which is what
// makes the no-loss/no-duplicate argument go through: notifications in
// flight toward the old border broker are ahead of the fetch on every
// link, so they are buffered and replayed exactly once.

// localRelocateSubscribe handles a relocation re-subscription issued by a
// client that just attached to this broker. Runs on the broker goroutine.
func (b *Broker) localRelocateSubscribe(cs *clientState, sub wire.Subscription) error {
	key := subKey(sub.Client, sub.ID)
	clientHop := wire.ClientHop(sub.Client)

	if old, ok := cs.subs[sub.ID]; ok {
		// The client reappeared at the very broker it left: the virtual
		// counterpart is local. Deliver the buffered notifications beyond
		// LastSeq directly; no network protocol needed.
		b.drainLocalBuffer(cs, old, sub.LastSeq)
		return nil
	}

	st := &clientSub{sub: sub, nextSeq: sub.LastSeq + 1}
	cs.subs[sub.ID] = st
	rec := b.record(sub)

	olds := b.oldEntries(sub.Client, sub.ID, clientHop)
	b.subs.Add(routing.Entry{Filter: sub.Filter, Hop: clientHop, Client: sub.Client, SubID: sub.ID})
	p := &relocationPending{client: sub.Client, id: sub.ID, epoch: sub.RelocEpoch}
	b.pending[key] = p
	st.pending = p
	b.relocStarted++
	if timeout := b.relocTimeout(); timeout > 0 {
		epoch := sub.RelocEpoch
		p.timer = time.AfterFunc(timeout, func() {
			// Posted through the mailbox as a control task; a no-op if the
			// broker has shut down meanwhile (push to a closed mailbox is
			// silently dropped).
			b.box.push(task{fn: func() { b.expireRelocation(key, epoch) }})
		})
	}

	if len(olds) > 0 {
		// The new border broker itself lies on the old delivery path: it
		// is its own junction.
		b.divert(sub, olds, clientHop)
	} else {
		// The relocation flags travel with the arrival only, so the
		// brokers on the way can detect the junction.
		b.offerAll(rec)
	}
	rec.sub = persistentForm(sub)
	return nil
}

// relocTimeout resolves Options.RelocTimeout: zero means the default,
// negative disables the bound.
func (b *Broker) relocTimeout() time.Duration {
	switch {
	case b.opts.RelocTimeout < 0:
		return 0
	case b.opts.RelocTimeout == 0:
		return DefaultRelocTimeout
	}
	return b.opts.RelocTimeout
}

// expireRelocation gives up on an outstanding relocation replay: the
// pending buffer's notifications are delivered as live traffic with fresh
// sequence numbers. Without this, a subscriber failing over from a
// crashed border broker would buffer forever, since the crashed broker's
// virtual counterpart — and with it the replay — is gone. Notifications
// the crashed broker had buffered but not replayed are lost; the blackout
// experiment measures that loss. The expiry bound and the relocation
// buffer cap are the two deliberate loss points of the protocol —
// Section 4.1's "completeness within the boundaries of time and/or space
// limitations of buffering approaches": RelocTimeout bounds how long a
// relocation may buffer, RelocBufferCap bounds how much, and each drop is
// counted (RelocationsExpired measures nothing by itself, but the blackout
// experiment's loss column does; BufferDrops counts the space side
// directly). Runs on the broker goroutine; the epoch check drops stale
// timers from an earlier relocation of the same subscription.
func (b *Broker) expireRelocation(key string, epoch uint64) {
	p, ok := b.pending[key]
	if !ok || p.epoch != epoch {
		return
	}
	delete(b.pending, key)
	delete(b.fetched, key) // relocation over; allow future epochs to refetch
	b.relocExpired++
	cs, ok := b.clients[p.client]
	if !ok {
		return
	}
	st, ok := cs.subs[p.id]
	if !ok {
		return
	}
	if st.pending == p {
		st.pending = nil
	}
	for _, n := range p.notifs {
		b.deliverTo(cs, st, n, nil)
	}
}

// persistentForm strips the one-shot relocation flags so the stored
// subscription can be re-offered later (e.g. toward new advertisers).
func persistentForm(sub wire.Subscription) wire.Subscription {
	sub.Relocate = false
	sub.LastSeq = 0
	sub.IsMobile = true
	return sub
}

// drainLocalBuffer delivers the virtual counterpart's buffered items with
// sequence numbers beyond lastSeq to the (re-)connected client.
func (b *Broker) drainLocalBuffer(cs *clientState, st *clientSub, lastSeq uint64) {
	items := st.buffer
	st.buffer = nil
	for _, it := range items {
		if it.Seq <= lastSeq {
			continue
		}
		if cs.reachable() {
			b.handOver(cs, wire.Deliver{Client: cs.id, ID: st.sub.ID, Item: it, Replayed: true}, nil)
		}
	}
}

// handleFetch processes a relocation fetch request traveling along the old
// delivery path (Section 4.1, step 5). At most one fetch is honored per
// relocation epoch at each broker; later fetches (possible when the new
// subscription met the old path at several junctions) are dropped, which
// keeps the flipped entries forming a tree pointing at the client.
func (b *Broker) handleFetch(from wire.Hop, f wire.Fetch) {
	key := subKey(f.Client, f.ID)
	if last, ok := b.fetched[key]; ok && last >= f.Epoch {
		return
	}
	// The fetched dedup entry is garbage collected when a relocation
	// completes, so it alone cannot drop a same-epoch duplicate that was
	// still in flight on a slow path. If the subscription's client is
	// connected HERE with a current-or-newer epoch, this broker is the
	// client's live border broker and the entry pointing at the client
	// hop must not be flipped away — drop the straggler.
	if cs, ok := b.clients[f.Client]; ok && cs.connected {
		if st, ok := cs.subs[f.ID]; ok && st.sub.RelocEpoch >= f.Epoch {
			return
		}
	}
	olds := b.subs.ClientEntries(f.Client, f.ID)
	var forward []routing.Entry
	for _, e := range olds {
		if e.Hop != from {
			forward = append(forward, e)
		}
	}
	if len(forward) == 0 {
		return // stale fetch; nothing to divert here
	}
	b.fetched[key] = f.Epoch
	for _, e := range forward {
		b.subs.Remove(e)
	}
	// Flip: the client is now reachable via the hop the fetch came from.
	b.subs.Add(routing.Entry{Filter: f.Filter, Hop: from, Client: f.Client, SubID: f.ID})
	for _, e := range forward {
		if e.Hop.IsClient() {
			// This broker is the old border broker: the virtual
			// counterpart lives here. Replay and garbage collect.
			b.replayFromCounterpart(f, from)
			continue
		}
		b.send(e.Hop, wire.NewFetch(f))
	}
}

// replayFromCounterpart sends the virtual counterpart's buffered
// notifications (those the roaming client has not seen) back toward the
// junction and garbage collects the client's local state (Section 4.1,
// step 6: "Replay & clean up").
func (b *Broker) replayFromCounterpart(f wire.Fetch, toward wire.Hop) {
	replay := wire.Replay{
		Client:  f.Client,
		ID:      f.ID,
		From:    b.id,
		NextSeq: f.LastSeq + 1,
	}
	if cs, ok := b.clients[f.Client]; ok {
		if st, ok := cs.subs[f.ID]; ok {
			for _, it := range st.buffer {
				if it.Seq > f.LastSeq {
					replay.Items = append(replay.Items, it)
				}
			}
			replay.NextSeq = st.nextSeq
			b.dropSub(cs, f.ID)
		}
		if !cs.connected && len(cs.subs) == 0 && len(cs.advs) == 0 {
			delete(b.clients, f.Client)
		}
	}
	b.replaySizes.Observe(uint64(len(replay.Items)))
	b.send(toward, wire.NewReplay(replay))
}

// handleReplay routes a replay batch along the (already flipped) delivery
// path toward the client's new border broker, where it completes the
// relocation: replayed messages are delivered first, then the
// notifications buffered during the relocation, preserving FIFO order.
func (b *Broker) handleReplay(from wire.Hop, r wire.Replay) {
	entries := b.subs.ClientEntries(r.Client, r.ID)
	for _, e := range entries {
		if e.Hop.IsClient() {
			b.completeRelocation(r)
			return
		}
	}
	for _, e := range entries {
		if e.Hop != from {
			b.send(e.Hop, wire.NewReplay(r))
			return
		}
	}
}

// completeRelocation runs at the new border broker when the replay
// arrives.
func (b *Broker) completeRelocation(r wire.Replay) {
	key := subKey(r.Client, r.ID)
	// The relocation this replay belongs to is over either way: release
	// the fetch-dedup entry so a future epoch of the same subscription
	// can be fetched again (handleFetch separately guards the live
	// client entry against same-epoch stragglers).
	delete(b.fetched, key)
	cs, ok := b.clients[r.Client]
	if !ok {
		delete(b.pending, key)
		return
	}
	st, ok := cs.subs[r.ID]
	if !ok {
		delete(b.pending, key)
		return
	}
	p := b.pending[key]
	delete(b.pending, key)
	st.pending = nil
	if p != nil && p.timer != nil {
		p.timer.Stop()
	}
	b.relocCompleted++

	// Adopt the old border broker's numbering.
	if r.NextSeq > st.nextSeq {
		st.nextSeq = r.NextSeq
	}
	// Old messages first …
	for _, it := range r.Items {
		if cs.reachable() {
			b.handOver(cs, wire.Deliver{Client: r.Client, ID: r.ID, Item: it, Replayed: true}, nil)
		} else {
			st.buffer = appendCapped(b, st.buffer, it, b.opts.RelocBufferCap)
		}
	}
	// … then the ones that arrived over the new path meanwhile (the
	// pending entry is already deleted, so these deliver normally and get
	// fresh sequence numbers continuing the old broker's numbering).
	if p != nil {
		for _, n := range p.notifs {
			b.deliverTo(cs, st, n, nil)
		}
	}
}
