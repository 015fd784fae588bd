package broker

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/location"
	"repro/internal/locfilter"
	"repro/internal/routing"
	"repro/internal/wire"
)

// This file implements logical mobility (Section 5): location-dependent
// subscriptions carrying the myloc marker. The consumer's local broker
// filters exactly against the current location (F₀ = F̃); each broker
// Bᵢ₊₁ along the path toward producers holds a widened entry
// Fᵢ = ploc(x, sᵢ), where the widening steps sᵢ follow the adaptivity
// scheme of Section 5.3 (computed incrementally as the subscription
// travels: each broker advances the schedule state by its own processing
// delay δ before forwarding).
//
// On a location change x → y, the border broker switches its exact filter
// instantly (no blackout — notifications for y were already flowing
// because the upstream filters cover the possible next locations) and
// sends a LocUpdate upstream. Each broker applies the ploc delta at its
// own step, i.e. unsubscribes the removed locations and subscribes the
// added ones, and forwards the update — stopping as soon as its delta is
// empty (ploc composition makes every further hop's delta empty too),
// which is the "restricted flooding" message saving of Figure 9.

// localSubscribeLocDep registers a location-dependent subscription from a
// locally attached client. Runs on the broker goroutine.
func (b *Broker) localSubscribeLocDep(cs *clientState, sub wire.Subscription) error {
	if b.opts.Registry == nil {
		return fmt.Errorf("broker %s: no movement-graph registry configured", b.id)
	}
	g, err := b.opts.Registry.Lookup(sub.GraphName)
	if err != nil {
		return err
	}
	if !g.Contains(sub.Loc) {
		return fmt.Errorf("broker %s: location %q not in graph %q", b.id, sub.Loc, sub.GraphName)
	}
	exact, err := locfilter.Instantiate(sub.Filter, sub.LocAttr, g, sub.Loc, 0)
	if err != nil {
		return err
	}
	clientHop := wire.ClientHop(sub.Client)
	b.dropSub(cs, sub.ID) // a relocating re-subscription replaces its state
	cs.subs[sub.ID] = &clientSub{sub: sub, nextSeq: 1}
	if cs.locExact == nil {
		cs.locExact = make(map[wire.SubID]filter.Filter)
	}
	cs.locExact[sub.ID] = exact
	b.subs.Add(routing.Entry{Filter: exact, Hop: clientHop, Client: sub.Client, SubID: sub.ID})

	rec := b.record(sub)
	rec.step, rec.entry, rec.from = 0, exact, clientHop
	b.offerAll(rec)
	return nil
}

// advanceStep returns the subscription as forwarded upstream: its
// adaptivity state advanced by this broker's δ (Section 5.3).
func (b *Broker) advanceStep(sub wire.Subscription) wire.Subscription {
	state := locfilter.StepState{
		Delta:        sub.Delta,
		CumDelay:     sub.CumDelay,
		Steps:        sub.Steps,
		NextMultiple: sub.NextMultiple,
	}
	if state.NextMultiple == 0 {
		state.NextMultiple = 1
	}
	state = state.Advance(b.opts.ProcDelay)
	sub.CumDelay = state.CumDelay
	sub.Steps = state.Steps
	sub.NextMultiple = state.NextMultiple
	return sub
}

// handleLocSubscribe processes a location-dependent subscription arriving
// over a link: instantiate the widened entry Fᵢ = ploc(x, sᵢ) for this
// hop, store it, and forward with advanced adaptivity state.
func (b *Broker) handleLocSubscribe(from wire.Hop, sub wire.Subscription) {
	if b.opts.Registry == nil {
		return
	}
	g, err := b.opts.Registry.Lookup(sub.GraphName)
	if err != nil {
		return
	}
	// Non-local hops widen by at least one step so that notifications for
	// the consumer's possible next locations are already under way when it
	// moves (Table 3's note on flooding semantics).
	step := locfilter.EffectiveStep(sub.Steps)
	entry, err := locfilter.Instantiate(sub.Filter, sub.LocAttr, g, sub.Loc, step)
	if err != nil {
		return
	}
	if old, ok := b.fwdSubs[sub.Key()]; ok && old.sub.LocDependent {
		// Re-subscription (e.g. refresh): replace the old entry.
		b.subs.Remove(routing.Entry{Filter: old.entry, Hop: old.from, Client: sub.Client, SubID: sub.ID})
	}
	b.subs.Add(routing.Entry{Filter: entry, Hop: from, Client: sub.Client, SubID: sub.ID})
	rec := b.record(sub)
	rec.step, rec.entry, rec.from = step, entry, from
	b.offerAll(rec)
}

// handleLocUpdate applies a location change at this broker's widening step
// and propagates it while it still changes something.
func (b *Broker) handleLocUpdate(from wire.Hop, lu wire.LocUpdate) {
	rec, ok := b.fwdSubs[subKey(lu.Client, lu.ID)]
	if !ok || !rec.sub.LocDependent {
		return
	}
	g, err := b.opts.Registry.Lookup(rec.sub.GraphName)
	if err != nil {
		return
	}
	cur := rec.sub.Loc
	delta := locfilter.MoveDelta(g, cur, lu.NewLoc, rec.step)
	rec.sub.Loc = lu.NewLoc
	if delta.Empty() {
		// ploc(cur, s) == ploc(new, s) implies equality at every larger
		// step upstream: stop propagating (restricted flooding).
		return
	}
	newEntry, err := locfilter.Instantiate(rec.sub.Filter, rec.sub.LocAttr, g, lu.NewLoc, rec.step)
	if err != nil {
		return
	}
	b.subs.Remove(routing.Entry{Filter: rec.entry, Hop: rec.from, Client: lu.Client, SubID: lu.ID})
	b.subs.Add(routing.Entry{Filter: newEntry, Hop: rec.from, Client: lu.Client, SubID: lu.ID})
	rec.entry = newEntry
	for _, h := range rec.fwdTo {
		b.send(h, wire.NewLocUpdate(lu))
	}
}

// SetLocation moves a logically mobile client to a new location
// ("declaring the new location by sending a message to its broker B₁",
// Section 5.1). The move must be legal under the movement graph.
func (b *Broker) SetLocation(client wire.ClientID, id wire.SubID, newLoc location.Location) error {
	var err error
	execErr := b.exec(func() { err = b.setLocation(client, id, newLoc) })
	if execErr != nil {
		return execErr
	}
	return err
}

func (b *Broker) setLocation(client wire.ClientID, id wire.SubID, newLoc location.Location) error {
	cs, ok := b.clients[client]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownClient, client)
	}
	st, ok := cs.subs[id]
	if !ok || !st.sub.LocDependent {
		return fmt.Errorf("%w: %s/%s", ErrUnknownSub, client, id)
	}
	g, err := b.opts.Registry.Lookup(st.sub.GraphName)
	if err != nil {
		return err
	}
	old := st.sub.Loc
	if old == newLoc {
		return nil
	}
	if !locfilter.ValidMove(g, old, newLoc) {
		return fmt.Errorf("%w: %s -> %s", ErrInvalidMove, old, newLoc)
	}
	exact, err := locfilter.Instantiate(st.sub.Filter, st.sub.LocAttr, g, newLoc, 0)
	if err != nil {
		return err
	}
	rec := b.fwdSubs[subKey(client, id)]
	clientHop := wire.ClientHop(client)

	// Instant switch of the client-side filter: this is what removes the
	// blackout period of the naive sub/unsub approach.
	b.subs.Remove(routing.Entry{Filter: cs.locExact[id], Hop: clientHop, Client: client, SubID: id})
	b.subs.Add(routing.Entry{Filter: exact, Hop: clientHop, Client: client, SubID: id})
	cs.locExact[id] = exact
	st.sub.Loc = newLoc
	if rec != nil {
		rec.sub.Loc = newLoc
		rec.entry = exact
		lu := wire.LocUpdate{Client: client, ID: id, OldLoc: old, NewLoc: newLoc}
		for _, h := range rec.fwdTo {
			b.send(h, wire.NewLocUpdate(lu))
		}
	}
	return nil
}
