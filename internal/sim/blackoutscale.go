package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/wire"
)

// This file implements the blackout-at-scale scenario: where blackout.go
// models Figure 3's analytical blackout of a single (re-)subscription,
// this scenario measures the real thing on the live overlay — a transit
// broker of a broker chain is crash-stopped (nothing is flushed, exactly
// like kill -9) while a producer publishes at a steady rate, and the
// elastic federation layer has to notice the silence, re-wire the tree,
// and fail orphaned clients over. Every publication carries its index, so
// the delivery gap at each consumer is measured, not estimated.
//
// Two consumers bracket the damage:
//
//   - the probe: a plain subscriber at the far end of the chain whose
//     delivery path crosses the victim. Its outage is detection + repair
//     plus the propagation of the reseeded routing state.
//   - the orphan: a mobile subscriber homed on the victim itself. It
//     additionally rides the client failover and — because its crashed
//     home can never answer the relocation fetch — waits out the
//     relocation timeout before deliveries resume (Section 4.1's replay,
//     degraded to a timeout when the old border broker no longer exists).

// BlackoutScaleConfig parameterizes the crash scenario.
type BlackoutScaleConfig struct {
	// Brokers is the chain length; the victim must be a transit broker
	// (neither end of the chain).
	Brokers int
	// Victim is the chain index of the broker that is crash-stopped.
	Victim int
	// Heartbeat and TTL parameterize the failure detector
	// (core.WithSelfHealing).
	Heartbeat, TTL time.Duration
	// RelocTimeout bounds the orphan's wait for a relocation replay that
	// can never come (core.WithRelocTimeout).
	RelocTimeout time.Duration
	// Publishes is the total number of publications; the broker is killed
	// after KillAfter of them. Publications are PublishEvery apart.
	Publishes, KillAfter int
	PublishEvery         time.Duration
	// Strategy is the routing strategy of the overlay.
	Strategy routing.Strategy
	// Drain bounds the wait for the tail of deliveries after the last
	// publication.
	Drain time.Duration
}

// Validate checks the configuration.
func (c BlackoutScaleConfig) Validate() error {
	switch {
	case c.Brokers < 3:
		return fmt.Errorf("sim: blackout-scale needs >= 3 brokers, got %d", c.Brokers)
	case c.Victim <= 0 || c.Victim >= c.Brokers-1:
		return fmt.Errorf("sim: victim %d is not a transit broker of a %d-chain", c.Victim, c.Brokers)
	case c.KillAfter <= 0 || c.KillAfter >= c.Publishes:
		return fmt.Errorf("sim: kill point %d outside publish run of %d", c.KillAfter, c.Publishes)
	case c.Heartbeat <= 0 || c.TTL <= 0:
		return fmt.Errorf("sim: self-healing needs positive heartbeat and ttl")
	}
	return nil
}

// DefaultBlackoutScaleConfig returns the EXPERIMENTS.md setting: a chain
// of 16 brokers, the victim in the middle, publishes every 2ms with the
// crash a quarter in.
func DefaultBlackoutScaleConfig() BlackoutScaleConfig {
	return BlackoutScaleConfig{
		Brokers:      16,
		Victim:       8,
		Heartbeat:    5 * time.Millisecond,
		TTL:          60 * time.Millisecond,
		RelocTimeout: 40 * time.Millisecond,
		Publishes:    400,
		KillAfter:    100,
		PublishEvery: 2 * time.Millisecond,
		Strategy:     routing.Covering,
		Drain:        5 * time.Second,
	}
}

// SubscriberOutcome is the measured delivery gap of one consumer.
type SubscriberOutcome struct {
	// Delivered and Lost partition the publications (duplicates counted
	// separately and expected to be zero).
	Delivered, Lost, Duplicates int
	// FirstLost and LastLost are the publish indexes bracketing the loss
	// window (-1 when nothing was lost).
	FirstLost, LastLost int
	// Outage is the wall-clock span from the crash to the publication
	// time of the first post-crash publication that was delivered again
	// and followed by no further loss; zero when nothing was lost.
	Outage time.Duration
}

// BlackoutScaleResult is the outcome of one crash run.
type BlackoutScaleResult struct {
	Config BlackoutScaleConfig
	// Detection is crash-to-detector latency (the repair event's Detected
	// timestamp minus the kill time); Repair is the re-wiring span the
	// repair reported.
	Detection, Repair time.Duration
	// Probe is the far-end plain subscriber, Orphan the mobile subscriber
	// that was homed on the victim.
	Probe, Orphan SubscriberOutcome
	// FailedOver reports whether the orphan ended up attached to the
	// repair parent.
	FailedOver bool
}

// Render prints the measured blackout, one line per quantity.
func (r BlackoutScaleResult) Render() string {
	c := r.Config
	out := fmt.Sprintf("blackout-scale: %d-broker chain, victim #%d, strategy %s\n",
		c.Brokers, c.Victim, c.Strategy)
	out += fmt.Sprintf("  load: %d publishes every %v, crash after #%d\n",
		c.Publishes, c.PublishEvery, c.KillAfter)
	out += fmt.Sprintf("  detector: heartbeat %v, ttl %v; relocation timeout %v\n",
		c.Heartbeat, c.TTL, c.RelocTimeout)
	out += fmt.Sprintf("  detection %v after crash, repair %v\n", r.Detection, r.Repair)
	line := func(name string, s SubscriberOutcome) string {
		if s.Lost == 0 {
			return fmt.Sprintf("  %s: %d delivered, no loss\n", name, s.Delivered)
		}
		return fmt.Sprintf("  %s: %d delivered, %d lost (publishes #%d..#%d), %d duplicates, outage %v\n",
			name, s.Delivered, s.Lost, s.FirstLost, s.LastLost, s.Duplicates, s.Outage)
	}
	out += line("probe (plain, far end)", r.Probe)
	out += line("orphan (mobile, on victim)", r.Orphan)
	out += fmt.Sprintf("  orphan failed over: %v\n", r.FailedOver)
	return out
}

// blackoutTap records delivered publish indexes for one consumer.
type blackoutTap struct {
	mu   sync.Mutex
	seen map[int]int
}

func newBlackoutTap() *blackoutTap { return &blackoutTap{seen: make(map[int]int)} }

func (t *blackoutTap) handle(e core.Event) {
	v, ok := e.Notification.Get("i")
	if !ok {
		return
	}
	t.mu.Lock()
	t.seen[int(v.IntVal())]++
	t.mu.Unlock()
}

// outcome reduces the tap against the publish schedule. killAt is the
// index of the first publication after the crash.
func (t *blackoutTap) outcome(pubAt []time.Time, killTime time.Time) SubscriberOutcome {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := SubscriberOutcome{FirstLost: -1, LastLost: -1}
	var lost []int
	for i := range pubAt {
		n := t.seen[i]
		switch {
		case n == 0:
			lost = append(lost, i)
		default:
			o.Delivered++
			o.Duplicates += n - 1
		}
	}
	o.Lost = len(lost)
	if len(lost) > 0 {
		sort.Ints(lost)
		o.FirstLost = lost[0]
		o.LastLost = lost[len(lost)-1]
		if o.LastLost+1 < len(pubAt) {
			o.Outage = pubAt[o.LastLost+1].Sub(killTime)
		}
	}
	return o
}

// RunBlackoutScale runs the crash scenario on the live overlay.
func RunBlackoutScale(cfg BlackoutScaleConfig) (BlackoutScaleResult, error) {
	if err := cfg.Validate(); err != nil {
		return BlackoutScaleResult{}, err
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 5 * time.Second
	}
	res := BlackoutScaleResult{Config: cfg}

	var (
		repairMu   sync.Mutex
		repairEv   *core.RepairEvent
		repairSeen = make(chan struct{})
	)
	net := core.NewNetwork(
		core.WithStrategy(cfg.Strategy),
		core.WithSelfHealing(cfg.Heartbeat, cfg.TTL),
		core.WithRelocTimeout(cfg.RelocTimeout),
		core.WithRepairObserver(func(e core.RepairEvent) {
			repairMu.Lock()
			if repairEv == nil {
				ev := e
				repairEv = &ev
				close(repairSeen)
			}
			repairMu.Unlock()
		}),
	)
	defer net.Close()

	ids := make([]wire.BrokerID, cfg.Brokers)
	for i := range ids {
		ids[i] = wire.BrokerID(fmt.Sprintf("b%02d", i+1))
		net.MustAddBroker(ids[i])
		if i > 0 {
			net.MustConnect(ids[i-1], ids[i], 0)
		}
	}
	victim := ids[cfg.Victim]

	producer, err := net.NewClient("producer", ids[0], nil)
	if err != nil {
		return res, err
	}
	quote := filter.MustParse(`type = "quote"`)
	if err := producer.Advertise("adv", quote); err != nil {
		return res, err
	}
	probeTap, orphanTap := newBlackoutTap(), newBlackoutTap()
	probe, err := net.NewClient("probe", ids[cfg.Brokers-1], probeTap.handle)
	if err != nil {
		return res, err
	}
	orphan, err := net.NewClient("orphan", victim, orphanTap.handle)
	if err != nil {
		return res, err
	}
	if err := probe.Subscribe(core.SubSpec{ID: "probe", Filter: quote}); err != nil {
		return res, err
	}
	if err := orphan.Subscribe(core.SubSpec{ID: "orphan", Filter: quote, Mobile: true}); err != nil {
		return res, err
	}
	net.Settle()

	pubAt := make([]time.Time, cfg.Publishes)
	var killTime time.Time
	for i := 0; i < cfg.Publishes; i++ {
		if i == cfg.KillAfter {
			killTime = time.Now()
			if err := net.Kill(victim); err != nil {
				return res, err
			}
		}
		pubAt[i] = time.Now()
		n := message.New(map[string]message.Value{
			"type": message.String("quote"),
			"i":    message.Int(int64(i)),
		})
		if err := producer.Publish(n); err != nil {
			return res, err
		}
		time.Sleep(cfg.PublishEvery)
	}

	// Wait for the repair event, then for the delivery tail to drain: the
	// run is over when both consumers saw the final publication (or the
	// drain budget expires — the outcome then simply records the loss).
	deadline := time.Now().Add(cfg.Drain)
	select {
	case <-repairSeen:
	case <-time.After(time.Until(deadline)):
	}
	last := cfg.Publishes - 1
	for time.Now().Before(deadline) {
		net.Settle()
		probeTap.mu.Lock()
		pDone := probeTap.seen[last] > 0
		probeTap.mu.Unlock()
		orphanTap.mu.Lock()
		oDone := orphanTap.seen[last] > 0
		orphanTap.mu.Unlock()
		if pDone && oDone {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	net.Settle()

	repairMu.Lock()
	if repairEv != nil {
		res.Detection = repairEv.Detected.Sub(killTime)
		res.Repair = repairEv.Done.Sub(repairEv.Detected)
	}
	repairMu.Unlock()
	res.Probe = probeTap.outcome(pubAt, killTime)
	res.Orphan = orphanTap.outcome(pubAt, killTime)
	res.FailedOver = orphan.At() != victim && orphan.At() != ""
	return res, nil
}
