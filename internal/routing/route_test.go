package routing

import (
	"fmt"
	"math/rand"
	"testing"

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

func collectRoute(each func(message.Notification, wire.Hop, func(*Entry)), n message.Notification, from wire.Hop) []Entry {
	var out []Entry
	each(n, from, func(e *Entry) { out = append(out, *e) })
	return out
}

// TestEachRouteProperty: over random tables of several broker and client
// hops, and origins among them, EachRoute visits a subset of
// EachMatchingEntry's entries — every client-hop match and one entry per
// matching broker hop other than the origin.
func TestEachRouteProperty(t *testing.T) {
	for _, g := range parityGens {
		for seed := int64(0); seed < 6; seed++ {
			g, seed := g, seed
			t.Run(fmt.Sprintf("%s/seed=%d", g.name, seed), func(t *testing.T) {
				t.Parallel()
				r := rand.New(rand.NewSource(seed))
				tbl := NewTable()
				var live []Entry
				for step := 0; step < 300; step++ {
					if r.Intn(4) > 0 || len(live) == 0 {
						if e := g.entry(r); tbl.Add(e) {
							live = append(live, e)
						}
					} else {
						i := r.Intn(len(live))
						tbl.Remove(live[i])
						live = append(live[:i], live[i+1:]...)
					}
					for k := 0; k < 3; k++ {
						n, from := g.notif(r), randHop(r)
						checkRoute(t, step, n, from, collectRoute(tbl.EachRoute, n, from), tbl.MatchingEntries(n, from))
					}
				}
			})
		}
	}
}
