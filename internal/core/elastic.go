package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/wire"
)

// This file is the elastic-federation layer of the in-process overlay:
// failure detection of killed brokers, overlay-tree repair on broker
// death, and client failover. The repair path is
// deliberately thin — it only re-wires topology through the existing
// primitives (Broker.RemoveLink retracts the dead hop's routing state,
// Network.Connect / Broker.AddLink re-attach and reseed through the
// Forwarder.Recompute oracle plus the advertisement and per-client
// re-offers), so there is no second reseed code path to keep consistent.

// RepairEvent describes one completed overlay repair after a broker
// failure. Observers registered with WithRepairObserver receive it from
// the detector goroutine (or synchronously from FailNow).
type RepairEvent struct {
	// Dead is the failed broker.
	Dead wire.BrokerID
	// Parent is the surviving neighbor the dead broker's other subtrees
	// and orphaned clients were re-attached to; empty when the dead
	// broker had no surviving neighbors.
	Parent wire.BrokerID
	// Reattached lists the other former neighbors now linked to Parent.
	Reattached []wire.BrokerID
	// Clients lists the orphaned clients that failed over.
	Clients []wire.ClientID
	// Detected is when repair began (the detector declared the broker
	// failed, or FailNow ran); Done is
	// when re-wiring and client failover completed (routing convergence
	// continues asynchronously as the reseed traffic propagates).
	Detected, Done time.Time
	// Err records the first re-wiring error, nil on a clean repair.
	Err error
}

// WithSelfHealing enables the elastic federation layer: a broker that has
// been silent (killed with Kill) for longer than ttl is declared failed
// and the overlay repairs itself — survivors drop the dead links, the
// orphaned subtrees re-attach under a surviving parent, and orphaned
// clients fail over with their subscriptions replayed. One detector
// goroutine checks for silent brokers every heartbeat, so detection
// lands between ttl and ttl+heartbeat after the crash.
func WithSelfHealing(heartbeat, ttl time.Duration) NetworkOption {
	return func(c *networkConfig) {
		c.healHeartbeat = heartbeat
		c.healTTL = ttl
	}
}

// WithRepairObserver registers a callback for completed repairs (used by
// the blackout experiment to timestamp detection and reconvergence). The
// callback runs on the detector goroutine and must not call back into the
// Network.
func WithRepairObserver(fn func(RepairEvent)) NetworkOption {
	return func(c *networkConfig) { c.repairObserver = fn }
}

// WithRelocTimeout sets every broker's bound on waiting for a relocation
// replay (broker.Options.RelocTimeout): zero keeps the broker default,
// negative disables the bound. Failover from a crashed border broker
// relies on the timeout — the crashed broker's virtual counterpart cannot
// replay, so the timeout is what un-gates the failed-over subscriber's
// deliveries.
func WithRelocTimeout(d time.Duration) NetworkOption {
	return func(c *networkConfig) { c.relocTimeout = d }
}

// elasticState is the Network-side runtime of the self-healing mode: the
// brokers Kill silenced, and the detector goroutine that repairs them.
type elasticState struct {
	heartbeat, ttl time.Duration

	mu       sync.Mutex
	silenced map[wire.BrokerID]time.Time // broker -> when Kill silenced it

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// startElastic starts the failure detector. Called from NewNetwork when
// self-healing is enabled.
func (n *Network) startElastic() {
	e := &elasticState{
		heartbeat: n.cfg.healHeartbeat,
		ttl:       n.cfg.healTTL,
		silenced:  make(map[wire.BrokerID]time.Time),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	n.elastic = e
	go n.detectFailures(e)
}

// detectFailures repairs, every heartbeat, each broker silent for longer
// than the TTL. Repairs run inline, one at a time.
func (n *Network) detectFailures(e *elasticState) {
	defer close(e.done)
	t := time.NewTicker(e.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case now := <-t.C:
			for _, id := range e.expired(now) {
				n.repairBrokerFailure(id)
			}
		}
	}
}

// expired takes out, in ID order, every broker silent for longer than
// the TTL at now.
func (e *elasticState) expired(now time.Time) []wire.BrokerID {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []wire.BrokerID
	for id, since := range e.silenced {
		if now.Sub(since) > e.ttl {
			out = append(out, id)
			delete(e.silenced, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// silence records that a broker went quiet; a second Kill keeps the
// first time.
func (e *elasticState) silence(id wire.BrokerID) {
	e.mu.Lock()
	if _, ok := e.silenced[id]; !ok {
		e.silenced[id] = time.Now()
	}
	e.mu.Unlock()
}

// shutdown stops the detector, waiting out a repair in progress.
func (e *elasticState) shutdown() {
	e.stopOnce.Do(func() {
		close(e.stop)
		<-e.done
	})
}

// Kill crash-stops a broker (Broker.Kill: queued work is discarded, links
// die, nothing is flushed) and marks it silent. With self-healing enabled
// the failure detector notices once the TTL has passed and repairs the
// overlay asynchronously; without it the overlay stays broken — which is
// the point of Kill as a fault-injection primitive. Use FailNow for
// deterministic synchronous repair in tests.
func (n *Network) Kill(id wire.BrokerID) error {
	n.mu.Lock()
	b, ok := n.brokers[id]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownBroker, id)
	}
	if n.elastic != nil {
		n.elastic.silence(id)
	}
	b.Kill()
	return nil
}

// FailNow crash-stops a broker and synchronously repairs the overlay,
// bypassing the failure detector. It works with or without self-healing
// enabled, which makes deterministic repair tests independent of timers.
func (n *Network) FailNow(id wire.BrokerID) error {
	if err := n.Kill(id); err != nil {
		return err
	}
	n.repairBrokerFailure(id)
	return nil
}

// repairBrokerFailure excises a dead broker and re-wires the overlay:
//
//  1. The dead broker leaves the topology maps.
//  2. Every surviving neighbor drops its link (Broker.RemoveLink — this
//     retracts the dead hop's routing entries and the aggregates they
//     justified, and forgets the per-link propagation dedup so re-offers
//     can happen).
//  3. The lowest-ID surviving neighbor becomes the parent; every other
//     former neighbor re-attaches to it (Network.Connect → AddLink →
//     Forwarder.Recompute reseed + advertisement / per-client re-offers).
//     Because the overlay was a tree, removing the dead node leaves
//     disjoint subtrees, so the new edges cannot close a cycle.
//  4. Orphaned clients fail over to the parent (or the lowest-ID survivor
//     when the dead broker was isolated) and replay their subscriptions.
//
// Both callers, FailNow and the detector, come after Kill. Safe to call
// for an already-repaired broker (no-op), as the detector does once the
// TTL of a broker FailNow repaired has passed. Runs on the detector
// goroutine, or on the caller's goroutine via FailNow.
func (n *Network) repairBrokerFailure(dead wire.BrokerID) {
	detected := time.Now()
	n.mu.Lock()
	db, ok := n.brokers[dead]
	if !ok || n.closed {
		n.mu.Unlock()
		return
	}
	delete(n.brokers, dead)
	neighbors := append([]wire.BrokerID(nil), n.edges[dead]...)
	delete(n.edges, dead)
	for _, nb := range neighbors {
		kept := n.edges[nb][:0]
		for _, x := range n.edges[nb] {
			if x != dead {
				kept = append(kept, x)
			}
		}
		n.edges[nb] = kept
	}
	survivors := make([]*broker.Broker, 0, len(neighbors))
	for _, nb := range neighbors {
		if b, ok := n.brokers[nb]; ok {
			survivors = append(survivors, b)
		}
	}
	var fallback wire.BrokerID
	for id := range n.brokers {
		if fallback == "" || id < fallback {
			fallback = id
		}
	}
	var orphans []*Client
	for _, c := range n.clients {
		if c.orphanOf(db) {
			orphans = append(orphans, c)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].ID() < orphans[j].ID() })
	n.mu.Unlock()

	ev := RepairEvent{Dead: dead, Detected: detected}
	for _, s := range survivors {
		if err := s.RemoveLink(dead); err != nil && ev.Err == nil {
			ev.Err = err
		}
	}
	sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
	if len(neighbors) > 0 {
		ev.Parent = neighbors[0]
		for _, other := range neighbors[1:] {
			if err := n.Connect(ev.Parent, other, -1); err != nil && ev.Err == nil {
				ev.Err = err
			}
			ev.Reattached = append(ev.Reattached, other)
		}
	}

	target := ev.Parent
	if target == "" {
		target = fallback
	}
	for _, c := range orphans {
		if err := c.failover(target); err != nil && ev.Err == nil {
			ev.Err = err
		}
		ev.Clients = append(ev.Clients, c.ID())
	}
	ev.Done = time.Now()
	if n.cfg.repairObserver != nil {
		n.cfg.repairObserver(ev)
	}
}
