package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/filter"
	"repro/internal/routing"
	"repro/internal/wire"
)

// This file implements the subscription-churn admin-traffic scenario: the
// roaming counterpart of Figure 9's message-count comparison. Where
// Figure 9 counts the traffic of one logically mobile consumer, this
// scenario makes subscription churn itself the steady-state workload —
// the paper's central mobility setting — and counts the broker-to-broker
// administrative messages (aggregate subscribe/unsubscribe) each routing
// strategy generates while a population of subscribers repeatedly
// relocates between brokers.
//
// The model runs the real control plane: every broker holds a
// routing.Forwarder fed through the delta API, and every Update a
// forwarder emits travels to the neighbor and cascades there, exactly as
// in package broker, minus transport and data plane. The per-strategy
// admin counts therefore reproduce what a live overlay sends, and the
// cover-check counters demonstrate that Covering's maintenance work is
// per-delta (signature-bucketed candidate scans) rather than per-table.

// ChurnConfig parameterizes the churn scenario.
type ChurnConfig struct {
	// Brokers is the length of the broker chain.
	Brokers int
	// Subscribers is the population size; each subscriber holds one
	// subscription drawn from a structured filter family with heavy
	// covering/merging material.
	Subscribers int
	// Moves is the number of roaming relocations after the initial
	// subscription phase: a random subscriber unsubscribes at its current
	// broker and resubscribes at a random other one.
	Moves int
	// Seed makes the scenario reproducible.
	Seed int64
}

// Validate checks the configuration.
func (c ChurnConfig) Validate() error {
	switch {
	case c.Brokers < 2:
		return fmt.Errorf("sim: churn needs >= 2 brokers, got %d", c.Brokers)
	case c.Subscribers < 1:
		return fmt.Errorf("sim: churn needs >= 1 subscriber, got %d", c.Subscribers)
	case c.Moves < 0:
		return fmt.Errorf("sim: negative move count")
	}
	return nil
}

// DefaultChurnConfig returns the EXPERIMENTS.md setting: a chain of 8
// brokers, 64 subscribers, 256 relocations.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{Brokers: 8, Subscribers: 64, Moves: 256, Seed: 42}
}

// ChurnResult is the per-strategy outcome.
type ChurnResult struct {
	Strategy routing.Strategy
	// InitialMsgs counts broker-to-broker admin messages during the
	// initial subscription phase, ChurnMsgs during the relocation phase;
	// AdminMsgs is their sum (the Figure 9 y-axis for admin traffic).
	InitialMsgs, ChurnMsgs, AdminMsgs uint64
	// MaxTableFilters is the largest per-broker count of distinct remote
	// filters observed at the end (routing-table pressure).
	MaxTableFilters int
	// CoverChecks is summed over all brokers' forwarders: the pairwise
	// cover tests their control planes evaluated.
	CoverChecks uint64
	// MergesActive, MergeCovered, and Unmerges are summed over all
	// brokers' forwarders at the end of the run: merge groups currently
	// suppressing inputs behind a merged filter, inputs so suppressed,
	// and cumulative re-expansions of merged filters on unsubscribe (all
	// zero for strategies below Merging).
	MergesActive, MergeCovered int
	Unmerges                   uint64
}

// churnBroker is one node of the modeled chain: its forwarder plus the
// aggregate inputs received from each neighbor (mirroring the remote
// entries a real broker's routing table holds).
type churnBroker struct {
	fwd    *routing.Forwarder
	remote map[int]map[string]filter.Filter // neighbor -> forwarded-to-us set
}

// churnMsg is one broker-to-broker admin message.
type churnMsg struct {
	from, to  int
	subscribe bool
	f         filter.Filter
}

// churnFilters builds the structured subscription family: nested and
// adjacent cost ranges plus per-service point filters, so Identity,
// Covering, and Merging each have distinct material to exploit.
func churnFilters(rng *rand.Rand, n int) []filter.Filter {
	out := make([]filter.Filter, n)
	for i := range out {
		switch rng.Intn(3) {
		case 0:
			lo := rng.Intn(8) * 5
			out[i] = filter.MustParse(fmt.Sprintf(`service = "parking" && cost in [%d, %d]`,
				lo, lo+5+rng.Intn(3)*15))
		case 1:
			out[i] = filter.MustParse(fmt.Sprintf(`service = "parking" && cost < %d`, 2+rng.Intn(4)))
		default:
			out[i] = filter.MustParse(fmt.Sprintf(`service = "s%d"`, rng.Intn(4)))
		}
	}
	return out
}

// RunChurn executes the scenario once per routing strategy and returns
// the per-strategy results in StrategyNames order.
func RunChurn(cfg ChurnConfig) ([]ChurnResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]ChurnResult, 0, len(routing.Strategies()))
	for _, strat := range routing.Strategies() {
		out = append(out, runChurnStrategy(cfg, strat))
	}
	return out, nil
}

func runChurnStrategy(cfg ChurnConfig, strat routing.Strategy) ChurnResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	filters := churnFilters(rng, cfg.Subscribers)
	at := make([]int, cfg.Subscribers) // subscriber -> broker
	for i := range at {
		at[i] = rng.Intn(cfg.Brokers)
	}

	brokers := make([]*churnBroker, cfg.Brokers)
	for i := range brokers {
		brokers[i] = &churnBroker{
			fwd:    routing.NewForwarder(strat),
			remote: make(map[int]map[string]filter.Filter),
		}
	}
	neighbors := func(i int) []int {
		var ns []int
		if i > 0 {
			ns = append(ns, i-1)
		}
		if i < cfg.Brokers-1 {
			ns = append(ns, i+1)
		}
		return ns
	}

	res := ChurnResult{Strategy: strat}
	var queue []churnMsg
	// enqueue translates a forwarder Update into wire messages.
	enqueue := func(from int, to int, u routing.Update) {
		for _, f := range u.Subscribe {
			queue = append(queue, churnMsg{from: from, to: to, subscribe: true, f: f})
		}
		for _, f := range u.Unsubscribe {
			queue = append(queue, churnMsg{from: from, to: to, f: f})
		}
	}
	// applyLocal feeds one local table change at broker b into its
	// forwarder toward every neighbor except skip (-1: none).
	applyLocal := func(b, skip int, f filter.Filter, add bool) {
		cb := brokers[b]
		for _, n := range neighbors(b) {
			if n == skip {
				continue
			}
			hop := wire.BrokerHop(wire.BrokerID(fmt.Sprintf("b%d", n)))
			var u routing.Update
			if add {
				u = cb.fwd.AddFilter(hop, f)
			} else {
				u = cb.fwd.RemoveFilter(hop, f)
			}
			enqueue(b, n, u)
		}
	}
	drain := func(counter *uint64) {
		for len(queue) > 0 {
			m := queue[0]
			queue = queue[1:]
			*counter++
			cb := brokers[m.to]
			rem := cb.remote[m.from]
			if rem == nil {
				rem = make(map[string]filter.Filter)
				cb.remote[m.from] = rem
			}
			id := m.f.ID()
			if m.subscribe {
				if _, dup := rem[id]; dup {
					continue
				}
				rem[id] = m.f
			} else {
				if _, ok := rem[id]; !ok {
					continue
				}
				delete(rem, id)
			}
			applyLocal(m.to, m.from, m.f, m.subscribe)
		}
	}

	// Initial subscription phase.
	for i, f := range filters {
		applyLocal(at[i], -1, f, true)
		drain(&res.InitialMsgs)
	}
	// Roaming churn phase.
	for move := 0; move < cfg.Moves; move++ {
		i := rng.Intn(cfg.Subscribers)
		to := rng.Intn(cfg.Brokers)
		if to == at[i] {
			to = (to + 1) % cfg.Brokers
		}
		applyLocal(at[i], -1, filters[i], false)
		drain(&res.ChurnMsgs)
		at[i] = to
		applyLocal(to, -1, filters[i], true)
		drain(&res.ChurnMsgs)
	}
	res.AdminMsgs = res.InitialMsgs + res.ChurnMsgs

	for _, cb := range brokers {
		distinct := make(map[string]bool)
		for _, rem := range cb.remote {
			for id := range rem {
				distinct[id] = true
			}
		}
		if len(distinct) > res.MaxTableFilters {
			res.MaxTableFilters = len(distinct)
		}
		fs := cb.fwd.Stats()
		res.CoverChecks += fs.CoverChecks
		res.MergesActive += fs.MergesActive
		res.MergeCovered += fs.MergeCovered
		res.Unmerges += fs.Unmerges
	}
	return res
}
