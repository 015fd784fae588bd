package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/wire"
)

// checkRoute holds route (what EachRoute visited) to all (what
// EachMatchingEntry visited for the same notification and origin): route
// is a subsequence of all, keeps every client-hop entry, and has exactly
// one entry for each broker hop all names.
func checkRoute(t *testing.T, step int, n message.Notification, from wire.Hop, route, all []Entry) {
	t.Helper()
	j := 0
	for _, e := range route {
		for j < len(all) && cmpEntryCanonical(all[j], e) != 0 {
			j++
		}
		if j == len(all) {
			t.Fatalf("step %d: EachRoute(%s, %s) visited %v, not a matching entry in order\nroute: %v\nall:   %v",
				step, n, from, e, route, all)
		}
		j++
	}
	brokers := map[wire.Hop]int{}
	for _, e := range route {
		if !e.Hop.IsClient() {
			brokers[e.Hop]++
		}
	}
	clients := 0
	for _, e := range all {
		switch {
		case e.Hop.IsClient():
			clients++
		case brokers[e.Hop] != 1:
			t.Fatalf("step %d: EachRoute(%s, %s) visited broker hop %s %d times, want once\nroute: %v\nall:   %v",
				step, n, from, e.Hop, brokers[e.Hop], route, all)
		}
	}
	if len(route) != clients+len(brokers) {
		t.Fatalf("step %d: EachRoute(%s, %s) visited %d entries, want %d client-hop ones and %d broker hops\nroute: %v\nall:   %v",
			step, n, from, len(route), clients, len(brokers), route, all)
	}
}

// collectRoute returns the entries a route match visits, and holds the
// owner ids it hands out to one per (Client, SubID) identity.
func collectRoute(t *testing.T, each func(message.Notification, wire.Hop, func(*Entry, int)), n message.Notification, from wire.Hop) []Entry {
	t.Helper()
	type ident struct {
		c wire.ClientID
		s wire.SubID
	}
	var out []Entry
	ids, owners := map[int]ident{}, map[ident]int{}
	each(n, from, func(e *Entry, owner int) {
		out = append(out, *e)
		id := ident{e.Client, e.SubID}
		if got, ok := ids[owner]; ok && got != id {
			t.Fatalf("EachRoute(%s, %s) gave owner id %d to %v and %v", n, from, owner, got, id)
		}
		if got, ok := owners[id]; ok && got != owner {
			t.Fatalf("EachRoute(%s, %s) gave %v owner ids %d and %d", n, from, id, got, owner)
		}
		ids[owner], owners[id] = id, owner
	})
	return out
}

// routeHops are the hop draws TestEachRouteProperty runs under. The wide
// one, whose cases carry no name of their own, spreads rows over four broker
// hops and three clients. The narrow one
// puts them on two broker hops and one client, and removes as often as it
// adds. There the arrival hop is often the only other live hop, a match
// stops at its forwarding decision (see openRoutes), and a hop loses its
// last row between two matches. Half of the client's rows constrain an
// attribute no notification carries, so they hold a match open without
// ever matching.
var routeHops = []struct {
	name  string
	entry func(r *rand.Rand, e Entry) Entry
	from  func(r *rand.Rand) wire.Hop
	adds  int // in four steps
}{
	{"", func(_ *rand.Rand, e Entry) Entry { return e }, randHop, 3},
	{"narrow", func(r *rand.Rand, e Entry) Entry {
		switch r.Intn(4) {
		case 0, 1:
			e.Hop = wire.BrokerHop("b0")
		case 2:
			e.Hop = wire.BrokerHop("b1")
		default:
			e.Hop, e.Client = wire.ClientHop("c0"), "c0"
			if r.Intn(2) == 0 {
				e.Filter = filter.MustNew(filter.Exists("absent"))
			}
		}
		return e
	}, func(r *rand.Rand) wire.Hop {
		return []wire.Hop{wire.BrokerHop("b0"), wire.BrokerHop("b1"), wire.ClientHop("c0"), wire.ClientHop("c1"), {}}[r.Intn(5)]
	}, 2},
}

// TestEachRouteProperty: over random tables of several broker and client
// hops, and origins among them, EachRoute visits a subset of
// EachMatchingEntry's entries — every client-hop match and one entry per
// matching broker hop other than the origin.
func TestEachRouteProperty(t *testing.T) {
	for _, g := range parityGens {
		for _, h := range routeHops {
			for seed := int64(0); seed < 6; seed++ {
				g, h, seed := g, h, seed
				name := fmt.Sprintf("%s/seed=%d", g.name, seed)
				if h.name != "" {
					name = fmt.Sprintf("%s/%s/seed=%d", g.name, h.name, seed)
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					r := rand.New(rand.NewSource(seed))
					tbl := NewTable()
					var live []Entry
					for step := 0; step < 300; step++ {
						if r.Intn(4) >= 4-h.adds || len(live) == 0 {
							if e := h.entry(r, g.entry(r)); tbl.Add(e) {
								live = append(live, e)
							}
						} else {
							i := r.Intn(len(live))
							tbl.Remove(live[i])
							live = append(live[:i], live[i+1:]...)
						}
						for k := 0; k < 3; k++ {
							n, from := g.notif(r), h.from(r)
							checkRoute(t, step, n, from, collectRoute(t, tbl.EachRoute, n, from), tbl.MatchingEntries(n, from))
						}
					}
				})
			}
		}
	}
}
