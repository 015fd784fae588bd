package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/filter"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestControlPlaneStats checks the admin-traffic and cover-index counters
// a covering broker surfaces: forwarding a narrow-then-wide pair costs
// two subscribes and one retraction upstream.
func TestControlPlaneStats(t *testing.T) {
	h := newHarness(t, Options{Strategy: routing.Covering},
		[][2]wire.BrokerID{{"b1", "b2"}})
	b1 := h.brokers["b1"]
	if err := b1.AttachClient("c", nil); err != nil {
		t.Fatal(err)
	}
	subs := []struct {
		id  wire.SubID
		src string
	}{
		{"n", `p in [10, 20]`},
		{"w", `p in [0, 100]`},
	}
	for _, s := range subs {
		if err := b1.Subscribe(wire.Subscription{
			Filter: filter.MustParse(s.src), Client: "c", ID: s.id,
		}); err != nil {
			t.Fatal(err)
		}
	}
	h.settle()

	st := b1.Stats()
	if st.ControlSubsSent != 2 {
		t.Errorf("ControlSubsSent = %d, want 2 (narrow then wide)", st.ControlSubsSent)
	}
	if st.ControlUnsubsSent != 1 {
		t.Errorf("ControlUnsubsSent = %d, want 1 (narrow retracted)", st.ControlUnsubsSent)
	}
	fs := st.Forwarder
	if fs.Strategy != routing.Covering {
		t.Errorf("Forwarder stats = %+v, want covering", fs)
	}
	if fs.TrackedFilters != 2 || fs.ForwardedFilters != 1 {
		t.Errorf("tracked/forwarded = %d/%d, want 2/1", fs.TrackedFilters, fs.ForwardedFilters)
	}
	if fs.CoverChecks == 0 {
		t.Error("CoverChecks = 0; the wide add must have tested the narrow filter")
	}
	if err := b1.Unsubscribe("c", "w"); err != nil {
		t.Fatal(err)
	}
	h.settle()
	st = b1.Stats()
	if st.ControlUnsubsSent != 2 || st.ControlSubsSent != 3 {
		t.Errorf("after wide unsub: subs=%d unsubs=%d, want 3/2 (narrow re-forwarded)",
			st.ControlSubsSent, st.ControlUnsubsSent)
	}
}

// TestControlPlaneChurnMatchesBatchReduce drives randomized subscription
// churn through a live two-broker overlay for every strategy and asserts
// the neighbor's routing table always equals the batch Strategy.Reduce of
// the surviving subscriptions — the end-to-end version of the forwarder
// property test, crossing the real wire.
func TestControlPlaneChurnMatchesBatchReduce(t *testing.T) {
	for _, strat := range routing.Strategies() {
		if strat == routing.Flooding {
			continue // flooding propagates nothing to compare
		}
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			h := newHarness(t, Options{Strategy: strat},
				[][2]wire.BrokerID{{"b1", "b2"}})
			b1, b2 := h.brokers["b1"], h.brokers["b2"]
			if err := b1.AttachClient("c", nil); err != nil {
				t.Fatal(err)
			}
			pool := make([]filter.Filter, 0, 24)
			for lo := 0; lo < 30; lo += 5 {
				pool = append(pool,
					filter.MustParse(fmt.Sprintf(`p in [%d, %d]`, lo, lo+4)),
					filter.MustParse(fmt.Sprintf(`p in [%d, %d]`, lo, lo+15)))
			}
			for v := 0; v < 6; v++ {
				pool = append(pool,
					filter.MustParse(fmt.Sprintf(`svc = "s%d"`, v%3)),
					filter.MustParse(fmt.Sprintf(`svc = "s%d" && p < %d`, v%3, v+2)))
			}
			rng := rand.New(rand.NewSource(int64(strat) * 7919))
			live := make(map[wire.SubID]filter.Filter)
			next := 0
			for step := 0; step < 60; step++ {
				if len(live) == 0 || rng.Intn(2) == 0 {
					id := wire.SubID(fmt.Sprintf("s%d", next))
					next++
					f := pool[rng.Intn(len(pool))]
					live[id] = f
					if err := b1.Subscribe(wire.Subscription{Filter: f, Client: "c", ID: id}); err != nil {
						t.Fatal(err)
					}
				} else {
					for id := range live {
						delete(live, id)
						if err := b1.Unsubscribe("c", id); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			}
			h.settle()

			inputs := make([]filter.Filter, 0, len(live))
			for _, f := range live {
				inputs = append(inputs, f)
			}
			sort.Slice(inputs, func(i, j int) bool { return inputs[i].ID() < inputs[j].ID() })
			want := make([]string, 0)
			for _, f := range strat.Reduce(inputs) {
				want = append(want, f.ID())
			}
			sort.Strings(want)
			got := make([]string, 0)
			for _, e := range b2.SubEntries() {
				got = append(got, e.Filter.ID())
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("b2 table after churn:\n got  %v\n want %v", got, want)
			}
		})
	}
}

// TestAddLinkSeedsNewNeighbor: a broker that gains a link after
// subscriptions exist must push the aggregate interest to the new
// neighbor immediately (the batch-oracle seed on link churn).
func TestAddLinkSeedsNewNeighbor(t *testing.T) {
	h := newHarness(t, Options{Strategy: routing.Covering},
		[][2]wire.BrokerID{{"b1", "b2"}})
	b2 := h.brokers["b2"]
	b1 := h.brokers["b1"]
	if err := b1.AttachClient("c", nil); err != nil {
		t.Fatal(err)
	}
	if err := b1.Subscribe(wire.Subscription{
		Filter: filter.MustParse(`k = "v"`), Client: "c", ID: "s",
	}); err != nil {
		t.Fatal(err)
	}
	h.settle()

	// Wire a third broker onto b2 after the fact.
	b3 := New("b3", Options{Strategy: routing.Covering})
	b3.Start()
	t.Cleanup(b3.Close)
	l2, l3 := transport.Pipe(wire.BrokerHop("b2"), wire.BrokerHop("b3"), b2, b3)
	if err := b2.AddLink("b3", l2); err != nil {
		t.Fatal(err)
	}
	if err := b3.AddLink("b2", l3); err != nil {
		t.Fatal(err)
	}
	h.brokers["b3"] = b3
	h.settle()
	if subs, _ := b3.TableSizes(); subs != 1 {
		t.Errorf("b3 table after late join = %d entries, want 1 (seeded)", subs)
	}
}

// TestRemoveLinkRetractsFromSurvivors: dropping the link that justified a
// forwarded aggregate must retract it from the remaining neighbors.
func TestRemoveLinkRetractsFromSurvivors(t *testing.T) {
	h := newHarness(t, Options{Strategy: routing.Covering},
		[][2]wire.BrokerID{{"b1", "hub"}, {"hub", "b3"}})
	hub, b1, b3 := h.brokers["hub"], h.brokers["b1"], h.brokers["b3"]
	if err := b1.AttachClient("c", nil); err != nil {
		t.Fatal(err)
	}
	if err := b1.Subscribe(wire.Subscription{
		Filter: filter.MustParse(`k = "v"`), Client: "c", ID: "s",
	}); err != nil {
		t.Fatal(err)
	}
	h.settle()
	if subs, _ := b3.TableSizes(); subs != 1 {
		t.Fatal("precondition: b3 learned the aggregate")
	}
	if err := hub.RemoveLink("b1"); err != nil {
		t.Fatal(err)
	}
	h.settle()
	if subs, _ := b3.TableSizes(); subs != 0 {
		t.Errorf("b3 table after hub dropped b1 = %d entries, want 0 (retracted)", subs)
	}
}
