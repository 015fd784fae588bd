package sim

import (
	"reflect"
	"testing"

	"repro/internal/routing"
)

func TestChurnValidation(t *testing.T) {
	bad := []ChurnConfig{
		{Brokers: 1, Subscribers: 1, Moves: 1},
		{Brokers: 2, Subscribers: 0, Moves: 1},
		{Brokers: 2, Subscribers: 1, Moves: -1},
	}
	for _, cfg := range bad {
		if _, err := RunChurn(cfg); err == nil {
			t.Errorf("config %+v should fail validation", cfg)
		}
	}
}

// TestChurnStrategyOrdering pins the qualitative Figure 9 shape for
// subscription churn: flooding spends no admin traffic at all, identity
// never beats simple, and covering strictly beats both by suppressing
// covered forwards.
func TestChurnStrategyOrdering(t *testing.T) {
	rs, err := RunChurn(DefaultChurnConfig())
	if err != nil {
		t.Fatal(err)
	}
	byStrat := make(map[routing.Strategy]ChurnResult, len(rs))
	for _, r := range rs {
		byStrat[r.Strategy] = r
	}
	if got := byStrat[routing.Flooding].AdminMsgs; got != 0 {
		t.Errorf("flooding admin msgs = %d, want 0", got)
	}
	simple := byStrat[routing.Simple].AdminMsgs
	identity := byStrat[routing.Identity].AdminMsgs
	covering := byStrat[routing.Covering].AdminMsgs
	merging := byStrat[routing.Merging].AdminMsgs
	if simple == 0 || identity == 0 || covering == 0 || merging == 0 {
		t.Fatalf("non-flooding strategies must spend admin traffic: %+v", rs)
	}
	if identity > simple {
		t.Errorf("identity (%d) must not exceed simple (%d)", identity, simple)
	}
	if covering >= identity {
		t.Errorf("covering (%d) must beat identity (%d) on this workload", covering, identity)
	}
	// Covering's routing tables must be smaller than identity's, and
	// merging's smaller still (the table-size half of the tradeoff).
	if c, i := byStrat[routing.Covering].MaxTableFilters, byStrat[routing.Identity].MaxTableFilters; c >= i {
		t.Errorf("covering table (%d) must be smaller than identity's (%d)", c, i)
	}
	if m, c := byStrat[routing.Merging].MaxTableFilters, byStrat[routing.Covering].MaxTableFilters; m > c {
		t.Errorf("merging table (%d) must not exceed covering's (%d)", m, c)
	}
	// The incremental merging plane must not spend more admin traffic
	// than covering: merged interval unions absorb churn that covering
	// forwards (the Figure 9 ordering for the merging strategy).
	if merging > covering {
		t.Errorf("merging admin msgs (%d) must not exceed covering's (%d)", merging, covering)
	}
	// The covering plane verifies only the candidates its probes report
	// (3 794 cover checks on this run); a scan of every same-shaped
	// filter per delta spends 9 439.
	const coverChecksBound = 5000
	if got := byStrat[routing.Covering].CoverChecks; got == 0 || got > coverChecksBound {
		t.Errorf("covering spent %d cover checks, want 1..%d", got, coverChecksBound)
	}
	// Merging must actually have merged — and unmerged — on this workload.
	mr := byStrat[routing.Merging]
	if mr.MergesActive == 0 || mr.MergeCovered == 0 {
		t.Errorf("merging plane inactive: %d groups covering %d subs", mr.MergesActive, mr.MergeCovered)
	}
	if mr.Unmerges == 0 {
		t.Error("relocation churn produced no unmerges; remove path never re-expanded a merge")
	}
	for _, s := range []routing.Strategy{routing.Flooding, routing.Simple, routing.Identity, routing.Covering} {
		if r := byStrat[s]; r.MergesActive != 0 || r.MergeCovered != 0 || r.Unmerges != 0 {
			t.Errorf("%s reports merge activity: %+v", s, r)
		}
	}
}

// TestChurnDeterministic: same seed, same numbers — the property the
// EXPERIMENTS.md table and the CI comparison rely on.
func TestChurnDeterministic(t *testing.T) {
	a, err := RunChurn(DefaultChurnConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChurn(DefaultChurnConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}
