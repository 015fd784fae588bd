package broker

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/filter"
	"repro/internal/location"
	"repro/internal/locfilter"
	"repro/internal/message"
	"repro/internal/wire"
)

// checkClientRowsExact asserts the invariant deliverTo trusts: every
// client-hop routing entry with an owner points at that owner and carries
// exactly the owning subscription's client-side filter (clientFilter),
// so a matched client-hop entry is the F0 decision itself. It returns the
// number of entries checked.
func checkClientRowsExact(t *testing.T, h *harness, step int) int {
	t.Helper()
	checked := 0
	for id, b := range h.brokers {
		var bad []string
		_ = b.exec(func() {
			for _, e := range b.subs.All() {
				if !e.Hop.IsClient() || e.Client == "" {
					continue
				}
				checked++
				var st *clientSub
				var exact filter.Filter
				if cs, ok := b.clients[e.Client]; ok {
					if st = cs.subs[e.SubID]; st != nil {
						exact = cs.clientFilter(e.SubID, st)
					}
				}
				switch {
				case e.Hop.Client != e.Client:
					bad = append(bad, fmt.Sprintf("%s/%s on hop %s", e.Client, e.SubID, e.Hop))
				case st == nil:
					bad = append(bad, fmt.Sprintf("%s/%s: entry without a subscription", e.Client, e.SubID))
				case !exact.Equal(e.Filter):
					bad = append(bad, fmt.Sprintf("%s/%s: entry %s, exact %s", e.Client, e.SubID, e.Filter, exact))
				}
			}
		})
		for _, s := range bad {
			t.Errorf("step %d, broker %s: %s", step, id, s)
		}
	}
	return checked
}

// trustSub is one subscription the random walk below holds.
type trustSub struct {
	id    wire.SubID
	f     filter.Filter
	class int // 0 plain, 1 mobile, 2 location-dependent
	loc   location.Location
	epoch uint64
}

// TestClientRowsCarryExactFilter drives random subscribe, unsubscribe,
// relocation and location-change sequences over a broker chain and checks
// after every step that client-hop entries carry their subscription's
// exact filter.
func TestClientRowsCarryExactFilter(t *testing.T) {
	brokers := []wire.BrokerID{"b1", "b2", "b3"}
	clients := []wire.ClientID{"c0", "c1", "c2"}
	pool := []filter.Filter{
		filter.MustParse(`k = "v"`),
		filter.MustParse(`k = "v" && n in [0, 10]`),
		filter.MustParse(`n > 3`),
	}
	locs := []location.Location{"a", "b", "c", "d"}
	g := location.FigureSeven()
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reg := locfilter.NewRegistry()
			if err := reg.Register("fig7", g); err != nil {
				t.Fatal(err)
			}
			h := newHarness(t, Options{Registry: reg}, [][2]wire.BrokerID{{"b1", "b2"}, {"b2", "b3"}})
			r := rand.New(rand.NewSource(seed))
			at := map[wire.ClientID]wire.BrokerID{}
			subs := map[wire.ClientID][]*trustSub{}
			for _, c := range clients {
				at[c] = brokers[r.Intn(len(brokers))]
				if err := h.brokers[at[c]].AttachClient(c, func(wire.Deliver) {}); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.brokers["b1"].AttachClient("p", nil); err != nil {
				t.Fatal(err)
			}
			checked, moved, relocated := 0, 0, 0
			for step := 0; step < 120; step++ {
				c := clients[r.Intn(len(clients))]
				b := h.brokers[at[c]]
				switch op := r.Intn(10); {
				case op < 4: // subscribe
					ts := &trustSub{id: wire.SubID(fmt.Sprintf("s%d", r.Intn(4))), f: pool[r.Intn(len(pool))], class: r.Intn(3)}
					sub := wire.Subscription{Filter: ts.f, Client: c, ID: ts.id, IsMobile: ts.class == 1}
					if ts.class == 2 {
						ts.loc = locs[r.Intn(len(locs))]
						sub = locSub(c, ts.id, ts.loc)
					}
					if b.Subscribe(sub) == nil {
						subs[c] = append(subs[c], ts)
					}
				case op < 6 && len(subs[c]) > 0: // unsubscribe
					i := r.Intn(len(subs[c]))
					_ = b.Unsubscribe(c, subs[c][i].id)
					subs[c] = append(subs[c][:i], subs[c][i+1:]...)
				case op < 8 && len(subs[c]) > 0: // move a location-dependent subscription
					ts := subs[c][r.Intn(len(subs[c]))]
					if ts.class == 2 {
						next := g.Ploc(ts.loc, 1).Sorted()
						ts.loc = next[r.Intn(len(next))]
						if b.SetLocation(c, ts.id, ts.loc) == nil {
							moved++
						}
					}
				case op < 9: // relocate: mobile subscriptions follow, the rest stay behind
					to := brokers[r.Intn(len(brokers))]
					if to == at[c] {
						break
					}
					_ = b.DetachClient(c)
					if err := h.brokers[to].AttachClient(c, func(wire.Deliver) {}); err != nil {
						t.Fatal(err)
					}
					at[c] = to
					var kept []*trustSub
					for _, ts := range subs[c] {
						if ts.class != 1 {
							continue
						}
						ts.epoch++
						if h.brokers[to].Subscribe(wire.Subscription{
							Filter: ts.f, Client: c, ID: ts.id, IsMobile: true,
							Relocate: true, RelocEpoch: ts.epoch,
						}) == nil {
							kept = append(kept, ts)
							relocated++
						}
					}
					subs[c] = kept
				default: // publish
					_ = h.brokers["b1"].Publish("p", message.New(map[string]message.Value{
						"k": message.String("v"), "n": message.Int(int64(r.Intn(12))),
						"svc": message.String("s"), "room": message.String(string(locs[r.Intn(len(locs))])),
					}))
				}
				h.settle()
				checked += checkClientRowsExact(t, h, step)
			}
			if checked == 0 || moved == 0 || relocated == 0 {
				t.Errorf("walk too tame: %d entries checked, %d location moves, %d relocations", checked, moved, relocated)
			}
		})
	}
}

// TestResubscribeGetsFreshDeliveryState: a subscription dropped and
// subscribed again under the same identity gets the same owner id in the
// routing table, which its deliveries are found by; they must reach the new
// subscription's state (numbered afresh), not the dropped one.
func TestResubscribeGetsFreshDeliveryState(t *testing.T) {
	h := newHarness(t, Options{}, [][2]wire.BrokerID{{"b1", "b2"}})
	b1 := h.brokers["b1"]
	var rec recorder
	if err := b1.AttachClient("c", rec.deliver); err != nil {
		t.Fatal(err)
	}
	if err := b1.AttachClient("p", nil); err != nil {
		t.Fatal(err)
	}
	sub := wire.Subscription{Filter: filter.MustParse(`k = "v"`), Client: "c", ID: "s"}
	n := message.New(map[string]message.Value{"k": message.String("v")})
	for round := 0; round < 2; round++ {
		if err := b1.Subscribe(sub); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := b1.Publish("p", n); err != nil {
				t.Fatal(err)
			}
		}
		if err := b1.Unsubscribe("c", "s"); err != nil {
			t.Fatal(err)
		}
	}
	h.settle()
	if got, want := rec.seqs(), []uint64{1, 2, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("delivered seqs %v, want %v", got, want)
	}
}
