package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// ChurnResult holds the subscription-churn admin-traffic comparison: the
// roaming counterpart of Figure 9, counting the broker-to-broker
// administrative messages each routing strategy spends while a subscriber
// population relocates (see sim.RunChurn).
type ChurnResult struct {
	Config   sim.ChurnConfig
	PerStrat []sim.ChurnResult
}

// Churn runs the subscription-churn scenario with the default setting.
func Churn(cfg sim.ChurnConfig) (ChurnResult, error) {
	rs, err := sim.RunChurn(cfg)
	if err != nil {
		return ChurnResult{}, err
	}
	return ChurnResult{Config: cfg, PerStrat: rs}, nil
}

// Render prints the per-strategy admin-message table.
func (r ChurnResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chain of %d brokers, %d subscribers, %d relocations (seed %d)\n",
		r.Config.Brokers, r.Config.Subscribers, r.Config.Moves, r.Config.Seed)
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %12s %12s %8s %8s %9s\n",
		"strategy", "initial", "churn", "total", "max-table", "cover-chk",
		"merges", "m-cover", "unmerges")
	for _, s := range r.PerStrat {
		fmt.Fprintf(&b, "%-10s %10d %10d %10d %12d %12d %8d %8d %9d\n",
			s.Strategy, s.InitialMsgs, s.ChurnMsgs, s.AdminMsgs,
			s.MaxTableFilters, s.CoverChecks,
			s.MergesActive, s.MergeCovered, s.Unmerges)
	}
	return b.String()
}
