package sim

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/wire"
)

// This file implements the roaming-at-scale scenario: where roaming.go
// replays the paper's single-client handoff itineraries, this scenario
// measures a relocation storm on the live overlay — a fleet of mobile
// subscribers ping-pongs between the last two brokers of a chain while a
// producer at the far end keeps publishing indexed notifications, and the
// border brokers carry a large ballast subscription table. Every
// notification carries its index, so exactly-once delivery through the
// storm (Section 4.1's no-loss/no-duplicate argument) is checked, not
// assumed; the ballast table checks the city-scale claim that relocation
// cost depends on the roaming client's own entries, not on the table size
// around them. The relocation timeout is disabled, so every relocation
// must complete through a real fetch/flip/replay round trip.

// RoamingScaleConfig parameterizes the relocation storm.
type RoamingScaleConfig struct {
	// Brokers is the chain length. The storm runs between the last two
	// brokers; the producer publishes from the first.
	Brokers int
	// Roamers is the number of mobile subscribers in the storm.
	Roamers int
	// Moves is how many times each roamer relocates.
	Moves int
	// PublishesPerMove is how many indexed notifications the producer
	// emits in each move round, racing the relocations.
	PublishesPerMove int
	// TableEntries is the ballast subscription table size injected at the
	// roamers' home broker before the storm.
	TableEntries int
	// Strategy is the routing strategy of the overlay.
	Strategy routing.Strategy
	// Drain bounds the wait for the delivery tail after the last round.
	Drain time.Duration
}

// Validate checks the configuration.
func (c RoamingScaleConfig) Validate() error {
	switch {
	case c.Brokers < 3:
		return fmt.Errorf("sim: roaming-scale needs >= 3 brokers, got %d", c.Brokers)
	case c.Roamers < 1:
		return fmt.Errorf("sim: roaming-scale needs >= 1 roamer, got %d", c.Roamers)
	case c.Moves < 1:
		return fmt.Errorf("sim: roaming-scale needs >= 1 move per roamer, got %d", c.Moves)
	case c.PublishesPerMove < 1:
		return fmt.Errorf("sim: roaming-scale needs >= 1 publish per move, got %d", c.PublishesPerMove)
	case c.TableEntries < 0:
		return fmt.Errorf("sim: negative ballast table size %d", c.TableEntries)
	}
	return nil
}

// DefaultRoamingScaleConfig returns the CI-sized setting: a 4-chain, 8
// roamers relocating 6 times each against a 2000-entry ballast table.
// (The benchmark variants in bench_test.go push the same shape to 10⁶
// ballast entries.)
func DefaultRoamingScaleConfig() RoamingScaleConfig {
	return RoamingScaleConfig{
		Brokers:          4,
		Roamers:          8,
		Moves:            6,
		PublishesPerMove: 4,
		TableEntries:     2000,
		Strategy:         routing.Covering,
		Drain:            5 * time.Second,
	}
}

// RoamingScaleResult is the outcome of one storm run.
type RoamingScaleResult struct {
	Config RoamingScaleConfig
	// Relocations is the total number of relocations driven (Roamers ×
	// Moves); Elapsed is the wall-clock span of the storm loop, and
	// RelocationsPerSec the resulting throughput under publish load.
	Relocations       int
	Elapsed           time.Duration
	RelocationsPerSec float64
	// Delivered / Lost / Duplicates partition the expected deliveries
	// (Roamers × Moves × PublishesPerMove). The protocol's claim is
	// Lost == 0 && Duplicates == 0.
	Delivered, Lost, Duplicates int
	// ReplayBatches / ReplayMeanItems / ReplayMaxItems aggregate the
	// replay-size distribution over all brokers: how much each virtual
	// counterpart had to send back per relocation.
	ReplayBatches   uint64
	ReplayMeanItems float64
	ReplayMaxItems  uint64
	// BufferDrops must be zero: the storm stays under the buffer caps.
	BufferDrops uint64
	// TableEntries is the measured table size at the roamers' home broker
	// after ballast injection (>= Config.TableEntries; the storm's own
	// subscriptions ride on top).
	TableEntries int
}

// Render prints the storm outcome, one line per quantity.
func (r RoamingScaleResult) Render() string {
	c := r.Config
	out := fmt.Sprintf("roaming-scale: %d-broker chain, %d roamers × %d moves, strategy %s\n",
		c.Brokers, c.Roamers, c.Moves, c.Strategy)
	out += fmt.Sprintf("  ballast: %d table entries at the home broker\n", r.TableEntries)
	out += fmt.Sprintf("  storm: %d relocations in %v (%.0f reloc/s) under %d publishes\n",
		r.Relocations, r.Elapsed.Round(time.Millisecond), r.RelocationsPerSec,
		c.Moves*c.PublishesPerMove)
	out += fmt.Sprintf("  delivery: %d delivered, %d lost, %d duplicates\n",
		r.Delivered, r.Lost, r.Duplicates)
	out += fmt.Sprintf("  replay: %d batches, mean %.2f items, max %d items, %d buffer drops\n",
		r.ReplayBatches, r.ReplayMeanItems, r.ReplayMaxItems, r.BufferDrops)
	return out
}

// RunRoamingScale runs the relocation storm on the live overlay.
func RunRoamingScale(cfg RoamingScaleConfig) (RoamingScaleResult, error) {
	if err := cfg.Validate(); err != nil {
		return RoamingScaleResult{}, err
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 5 * time.Second
	}
	res := RoamingScaleResult{Config: cfg}

	net := core.NewNetwork(
		core.WithStrategy(cfg.Strategy),
		core.WithRelocTimeout(-1), // strict: completion only through replay
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
	home, away := ids[cfg.Brokers-1], ids[cfg.Brokers-2]

	producer, err := net.NewClient("producer", ids[0], nil)
	if err != nil {
		return res, err
	}
	tick := filter.MustParse(`type = "tick"`)
	if err := producer.Advertise("adv", tick); err != nil {
		return res, err
	}
	taps := make([]*blackoutTap, cfg.Roamers)
	roamers := make([]*core.Client, cfg.Roamers)
	for i := range roamers {
		taps[i] = newBlackoutTap()
		c, err := net.NewClient(wire.ClientID(fmt.Sprintf("m%03d", i)), home, taps[i].handle)
		if err != nil {
			return res, err
		}
		if err := c.Subscribe(core.SubSpec{ID: "s", Filter: tick, Mobile: true}); err != nil {
			return res, err
		}
		roamers[i] = c
	}
	net.Settle()

	// Ballast: aggregate entries injected as if the chain neighbor had
	// forwarded them, so the control plane has nowhere to propagate them
	// and split-horizon matching keeps storm publishes out of them.
	homeBroker, err := net.Broker(home)
	if err != nil {
		return res, err
	}
	neighbor := wire.BrokerHop(away)
	const chunk = 4096
	msgs := make([]wire.Message, 0, chunk)
	for i := 0; i < cfg.TableEntries; i++ {
		f := filter.MustNew(filter.EQ("topic", message.String(fmt.Sprintf("bg%d", i))))
		msgs = append(msgs, wire.NewSubscribe(wire.Subscription{Filter: f}))
		if len(msgs) == chunk {
			homeBroker.ReceiveBurst(neighbor, msgs)
			homeBroker.Barrier()
			msgs = make([]wire.Message, 0, chunk)
		}
	}
	if len(msgs) > 0 {
		homeBroker.ReceiveBurst(neighbor, msgs)
		homeBroker.Barrier()
	}
	res.TableEntries, _ = homeBroker.TableSizes()

	// The storm: each round publishes a burst that races the fleet's
	// relocations, with no settling in between — notifications in flight
	// land in virtual-counterpart buffers and come back through replays.
	total := cfg.Moves * cfg.PublishesPerMove
	start := time.Now()
	idx := 0
	for m := 0; m < cfg.Moves; m++ {
		for p := 0; p < cfg.PublishesPerMove; p++ {
			n := message.New(map[string]message.Value{
				"type": message.String("tick"),
				"i":    message.Int(int64(idx)),
			})
			if err := producer.Publish(n); err != nil {
				return res, err
			}
			idx++
		}
		target := away
		if m%2 == 1 {
			target = home
		}
		for _, c := range roamers {
			if err := c.MoveTo(target); err != nil {
				return res, err
			}
		}
	}
	net.Settle()
	res.Elapsed = time.Since(start)
	res.Relocations = cfg.Moves * cfg.Roamers
	if s := res.Elapsed.Seconds(); s > 0 {
		res.RelocationsPerSec = float64(res.Relocations) / s
	}

	// Drain the delivery tail (client delivery goroutines are
	// asynchronous), then reduce the taps.
	deadline := time.Now().Add(cfg.Drain)
	for time.Now().Before(deadline) {
		done := true
		for _, tap := range taps {
			tap.mu.Lock()
			if tap.seen[total-1] == 0 {
				done = false
			}
			tap.mu.Unlock()
			if !done {
				break
			}
		}
		if done {
			break
		}
		net.Settle()
		time.Sleep(time.Millisecond)
	}
	net.Settle()

	for _, tap := range taps {
		tap.mu.Lock()
		for i := 0; i < total; i++ {
			switch n := tap.seen[i]; {
			case n == 0:
				res.Lost++
			default:
				res.Delivered++
				res.Duplicates += n - 1
			}
		}
		tap.mu.Unlock()
	}
	for _, id := range ids {
		br, err := net.Broker(id)
		if err != nil {
			return res, err
		}
		s := br.Stats()
		res.ReplayMeanItems = (res.ReplayMeanItems*float64(res.ReplayBatches) +
			s.ReplayMeanItems*float64(s.ReplayBatches))
		res.ReplayBatches += s.ReplayBatches
		if res.ReplayBatches > 0 {
			res.ReplayMeanItems /= float64(res.ReplayBatches)
		}
		if s.ReplayMaxItems > res.ReplayMaxItems {
			res.ReplayMaxItems = s.ReplayMaxItems
		}
		res.BufferDrops += s.BufferDrops
	}
	return res, nil
}
