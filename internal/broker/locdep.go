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
	key := subKey(sub.Client, sub.ID)
	clientHop := wire.ClientHop(sub.Client)

	cs.subs[sub.ID] = &clientSub{sub: sub, nextSeq: 1}
	if cs.locExact == nil {
		cs.locExact = make(map[wire.SubID]filter.Filter)
	}
	cs.locExact[sub.ID] = exact
	b.subs.Add(routing.Entry{Filter: exact, Hop: clientHop, Client: sub.Client, SubID: sub.ID})

	ls := &locSubState{sub: sub, step: 0, entry: exact, from: clientHop}
	b.locSubs[key] = ls
	b.forwardLocSub(ls, clientHop)
	return nil
}

// forwardLocSub advances the adaptivity state by this broker's δ and
// forwards the subscription toward producers.
func (b *Broker) forwardLocSub(ls *locSubState, from wire.Hop) {
	next := ls.sub
	state := locfilter.StepState{
		Delta:        next.Delta,
		CumDelay:     next.CumDelay,
		Steps:        next.Steps,
		NextMultiple: next.NextMultiple,
	}
	if state.NextMultiple == 0 {
		state.NextMultiple = 1
	}
	state = state.Advance(b.opts.ProcDelay)
	next.CumDelay = state.CumDelay
	next.Steps = state.Steps
	next.NextMultiple = state.NextMultiple

	for _, h := range b.subForwardHops(b.locOverlapFilter(ls.sub), from) {
		if h.IsClient() || b.alreadyForwarded(ls, h) {
			continue
		}
		ls.fwdTo = append(ls.fwdTo, h)
		b.send(h, wire.NewSubscribe(next))
	}
}

// locOverlapFilter is the filter used to decide which advertisers a
// location-dependent subscription must travel toward: the base filter with
// the location marker removed (any location could become relevant).
func (b *Broker) locOverlapFilter(sub wire.Subscription) filter.Filter {
	return sub.Filter.Without(sub.LocAttr)
}

func (b *Broker) alreadyForwarded(ls *locSubState, h wire.Hop) bool {
	for _, f := range ls.fwdTo {
		if f == h {
			return true
		}
	}
	return false
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
	key := sub.Key()
	if old, ok := b.locSubs[key]; ok {
		// Re-subscription (e.g. refresh): replace the old entry.
		b.subs.Remove(routing.Entry{Filter: old.entry, Hop: old.from, Client: sub.Client, SubID: sub.ID})
	}
	b.subs.Add(routing.Entry{Filter: entry, Hop: from, Client: sub.Client, SubID: sub.ID})
	ls := &locSubState{sub: sub, step: step, entry: entry, from: from}
	if old, ok := b.locSubs[key]; ok {
		ls.fwdTo = old.fwdTo
	}
	b.locSubs[key] = ls
	b.forwardLocSub(ls, from)
}

// handleLocUpdate applies a location change at this broker's widening step
// and propagates it while it still changes something.
func (b *Broker) handleLocUpdate(from wire.Hop, lu wire.LocUpdate) {
	key := subKey(lu.Client, lu.ID)
	ls, ok := b.locSubs[key]
	if !ok {
		return
	}
	g, err := b.opts.Registry.Lookup(ls.sub.GraphName)
	if err != nil {
		return
	}
	cur := ls.sub.Loc
	delta := locfilter.MoveDelta(g, cur, lu.NewLoc, ls.step)
	ls.sub.Loc = lu.NewLoc
	if delta.Empty() {
		// ploc(cur, s) == ploc(new, s) implies equality at every larger
		// step upstream: stop propagating (restricted flooding).
		return
	}
	newEntry, err := locfilter.Instantiate(ls.sub.Filter, ls.sub.LocAttr, g, lu.NewLoc, ls.step)
	if err != nil {
		return
	}
	b.subs.Remove(routing.Entry{Filter: ls.entry, Hop: ls.from, Client: lu.Client, SubID: lu.ID})
	b.subs.Add(routing.Entry{Filter: newEntry, Hop: ls.from, Client: lu.Client, SubID: lu.ID})
	ls.entry = newEntry
	for _, h := range ls.fwdTo {
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
	key := subKey(client, id)
	ls := b.locSubs[key]
	clientHop := wire.ClientHop(client)

	// Instant switch of the client-side filter: this is what removes the
	// blackout period of the naive sub/unsub approach.
	b.subs.Remove(routing.Entry{Filter: cs.locExact[id], Hop: clientHop, Client: client, SubID: id})
	b.subs.Add(routing.Entry{Filter: exact, Hop: clientHop, Client: client, SubID: id})
	cs.locExact[id] = exact
	st.sub.Loc = newLoc
	if ls != nil {
		ls.sub.Loc = newLoc
		ls.entry = exact
		lu := wire.LocUpdate{Client: client, ID: id, OldLoc: old, NewLoc: newLoc}
		for _, h := range ls.fwdTo {
			b.send(h, wire.NewLocUpdate(lu))
		}
	}
	return nil
}

// teardownLocSub withdraws a location-dependent subscription upstream.
func (b *Broker) teardownLocSub(key string) {
	ls, ok := b.locSubs[key]
	if !ok {
		return
	}
	delete(b.locSubs, key)
	for _, h := range ls.fwdTo {
		b.send(h, wire.NewUnsubscribe(ls.sub))
	}
}

// flushLocSubToward forwards a known location-dependent subscription
// toward a newly learned advertiser direction.
func (b *Broker) flushLocSubToward(key string, ls *locSubState, advHop wire.Hop, advFilter filter.Filter) {
	if advHop.IsClient() || advHop == ls.from || b.alreadyForwarded(ls, advHop) {
		return
	}
	if !b.locOverlapFilter(ls.sub).Overlaps(advFilter) {
		return
	}
	next := ls.sub
	state := locfilter.StepState{
		Delta:        next.Delta,
		CumDelay:     next.CumDelay,
		Steps:        next.Steps,
		NextMultiple: next.NextMultiple,
	}
	if state.NextMultiple == 0 {
		state.NextMultiple = 1
	}
	state = state.Advance(b.opts.ProcDelay)
	next.CumDelay = state.CumDelay
	next.Steps = state.Steps
	next.NextMultiple = state.NextMultiple
	ls.fwdTo = append(ls.fwdTo, advHop)
	b.send(advHop, wire.NewSubscribe(next))
	_ = key
}
