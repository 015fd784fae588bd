// Package core is the public API of the mobility-enabled pub/sub
// middleware: a Network of brokers connected by FIFO links, and Clients
// offering the paper's four primitives — pub, sub, unsub, notify — plus
// the two mobility extensions:
//
//   - MoveTo (physical mobility, Section 4): transparently rebind the
//     client to a different border broker with no lost or duplicated
//     notifications and preserved ordering.
//   - SetLocation (logical mobility, Section 5): location-dependent
//     subscriptions written with the myloc marker follow the client's
//     movements without blackout periods.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/location"
	"repro/internal/locfilter"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Errors returned by Network operations.
var (
	ErrDuplicateBroker = errors.New("core: duplicate broker id")
	ErrUnknownBroker   = errors.New("core: unknown broker")
	ErrCycle           = errors.New("core: link would create a cycle (overlay must stay acyclic)")
	ErrClosed          = errors.New("core: network closed")
)

// NetworkOption configures a Network.
type NetworkOption func(*networkConfig)

type networkConfig struct {
	strategy   routing.Strategy
	defaultLat time.Duration
	procDelay  time.Duration

	// Elastic-federation settings (see elastic.go).
	healHeartbeat  time.Duration
	healTTL        time.Duration
	relocTimeout   time.Duration
	repairObserver func(RepairEvent)
}

// WithStrategy selects the routing strategy for all brokers (default
// Covering).
func WithStrategy(s routing.Strategy) NetworkOption {
	return func(c *networkConfig) { c.strategy = s }
}

// WithLinkLatency sets the default one-way latency of links created by
// Connect.
func WithLinkLatency(d time.Duration) NetworkOption {
	return func(c *networkConfig) { c.defaultLat = d }
}

// WithProcDelay sets every broker's subscription-processing delay estimate
// δ used by the logical-mobility adaptivity scheme.
func WithProcDelay(d time.Duration) NetworkOption {
	return func(c *networkConfig) { c.procDelay = d }
}

// Network owns a set of in-process brokers, their links, the shared
// movement-graph registry, and message counters.
type Network struct {
	cfg      networkConfig
	registry *locfilter.Registry
	counter  *metrics.Counter

	// elastic is the self-healing runtime (the failure detector); nil
	// unless WithSelfHealing was given.
	elastic *elasticState

	mu      sync.Mutex
	brokers map[wire.BrokerID]*broker.Broker
	edges   map[wire.BrokerID][]wire.BrokerID
	clients map[wire.ClientID]*Client
	closed  bool
}

// NewNetwork creates an empty overlay.
func NewNetwork(opts ...NetworkOption) *Network {
	cfg := networkConfig{strategy: routing.Covering}
	for _, o := range opts {
		o(&cfg)
	}
	n := &Network{
		cfg:      cfg,
		registry: locfilter.NewRegistry(),
		counter:  &metrics.Counter{},
		brokers:  make(map[wire.BrokerID]*broker.Broker),
		edges:    make(map[wire.BrokerID][]wire.BrokerID),
		clients:  make(map[wire.ClientID]*Client),
	}
	if cfg.healTTL > 0 {
		n.startElastic()
	}
	return n
}

// Counter returns the network-wide message counter (every message crossing
// a broker-to-broker link is counted by category).
func (n *Network) Counter() *metrics.Counter { return n.counter }

// RegisterGraph registers a shared movement graph under a name; every
// broker resolves location-dependent subscriptions against it.
func (n *Network) RegisterGraph(name string, g *location.Graph) error {
	return n.registry.Register(name, g)
}

// AddBroker creates and starts a broker.
func (n *Network) AddBroker(id wire.BrokerID) (*broker.Broker, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.brokers[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateBroker, id)
	}
	b := broker.New(id, broker.Options{
		Strategy:     n.cfg.strategy,
		Registry:     n.registry,
		ProcDelay:    n.cfg.procDelay,
		Counter:      n.counter,
		RelocTimeout: n.cfg.relocTimeout,
	})
	b.Start()
	n.brokers[id] = b
	return b, nil
}

// MustAddBroker is AddBroker that panics on error (setup code).
func (n *Network) MustAddBroker(id wire.BrokerID) *broker.Broker {
	b, err := n.AddBroker(id)
	if err != nil {
		panic(err)
	}
	return b
}

// Broker returns a broker by ID.
func (n *Network) Broker(id wire.BrokerID) (*broker.Broker, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b, ok := n.brokers[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBroker, id)
	}
	return b, nil
}

// Connect links two brokers with a FIFO pipe of the given latency
// (overriding the network default when latency >= 0). The overlay must
// remain acyclic; Connect refuses to close a cycle.
func (n *Network) Connect(a, b wire.BrokerID, latency time.Duration) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	ba, ok := n.brokers[a]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownBroker, a)
	}
	bb, ok := n.brokers[b]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownBroker, b)
	}
	if n.reachableLocked(a, b) {
		return fmt.Errorf("%w: %s-%s", ErrCycle, a, b)
	}
	if latency < 0 {
		latency = n.cfg.defaultLat
	}
	la, lb := transport.Pipe(
		wire.BrokerHop(a), wire.BrokerHop(b),
		ba, bb,
		transport.WithLatency(latency),
		transport.WithCounter(n.counter),
	)
	if err := ba.AddLink(b, la); err != nil {
		return err
	}
	if err := bb.AddLink(a, lb); err != nil {
		return err
	}
	n.edges[a] = append(n.edges[a], b)
	n.edges[b] = append(n.edges[b], a)
	return nil
}

// MustConnect is Connect that panics on error (setup code).
func (n *Network) MustConnect(a, b wire.BrokerID, latency time.Duration) {
	if err := n.Connect(a, b, latency); err != nil {
		panic(err)
	}
}

// reachableLocked reports whether b is reachable from a over existing
// edges. Callers hold n.mu.
func (n *Network) reachableLocked(a, b wire.BrokerID) bool {
	visited := map[wire.BrokerID]bool{a: true}
	stack := []wire.BrokerID{a}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == b {
			return true
		}
		for _, next := range n.edges[cur] {
			if !visited[next] {
				visited[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// Close shuts down every broker and client. With self-healing enabled the
// failure detector stops first, so teardown is not mistaken for a mass
// failure.
func (n *Network) Close() {
	if n.elastic != nil {
		n.elastic.shutdown()
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	clients := make([]*Client, 0, len(n.clients))
	for _, c := range n.clients {
		clients = append(clients, c)
	}
	brokers := make([]*broker.Broker, 0, len(n.brokers))
	for _, b := range n.brokers {
		brokers = append(brokers, b)
	}
	n.mu.Unlock()

	for _, c := range clients {
		c.close()
	}
	for _, b := range brokers {
		b.Close()
	}
}

// Settle waits briefly for in-flight messages to drain. It is a testing
// convenience for the in-process overlay: with zero-latency links,
// messages propagate synchronously through broker mailboxes, so a few
// round trips through every broker's exec barrier flushes all queues.
func (n *Network) Settle() {
	n.mu.Lock()
	brokers := make([]*broker.Broker, 0, len(n.brokers))
	for _, b := range n.brokers {
		brokers = append(brokers, b)
	}
	n.mu.Unlock()
	// Messages can ping-pong across the diameter of the overlay; flushing
	// every broker's mailbox once per potential hop bounds the drain. The
	// +2 covers client-side queues on both ends.
	rounds := len(brokers) + 2
	for i := 0; i < rounds; i++ {
		for _, b := range brokers {
			b.Barrier()
		}
	}
	// Drain client delivery queues so handler side effects are visible.
	n.mu.Lock()
	clients := make([]*Client, 0, len(n.clients))
	for _, c := range n.clients {
		clients = append(clients, c)
	}
	n.mu.Unlock()
	for _, c := range clients {
		c.Flush()
	}
}
