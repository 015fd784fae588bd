package routing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/wire"
)

// collidingPair returns two distinct filters whose rendered IDs are equal:
// x in {"a,s:b"} and x in {"a", "b"} both render as x|in|s:a,s:b,.
func collidingPair() (one, two filter.Filter) {
	one = filter.MustNew(filter.In("x", message.String("a,s:b")))
	two = filter.MustNew(filter.In("x", message.String("a"), message.String("b")))
	return one, two
}

// TestIDCollidingFiltersStayApart pins that the routing package tells
// filters apart by identity, not by rendered ID: a forwarder that already
// forwards one of two ID-colliding filters still forwards the other, and
// the batch reduction keeps both.
func TestIDCollidingFiltersStayApart(t *testing.T) {
	one, two := collidingPair()
	if one.ID() != two.ID() || identFilterEqual(one, two) {
		t.Fatalf("want distinct filters with one ID: %s / %s", one.ID(), two.ID())
	}
	hop := wire.BrokerHop("up")
	for _, s := range []Strategy{Simple, Identity, Covering, Merging} {
		fwd := NewForwarder(s)
		fwd.AddFilter(hop, one)
		u := fwd.AddFilter(hop, two)
		if len(u.Subscribe) != 1 || !identFilterEqual(u.Subscribe[0], two) || len(u.Unsubscribe) != 0 {
			t.Errorf("%s: adding %s next to %s sent %+v, want it subscribed", s, two, one, u)
		}
		if got := len(fwd.Forwarded(hop)); got != 2 {
			t.Errorf("%s: %d filters forwarded, want 2", s, got)
		}
		if got := fwd.Stats().ForwardedFilters; got != 2 {
			t.Errorf("%s: ForwardedFilters = %d, want 2", s, got)
		}
		u = fwd.RemoveFilter(hop, one)
		if len(u.Unsubscribe) != 1 || !identFilterEqual(u.Unsubscribe[0], one) || len(u.Subscribe) != 0 {
			t.Errorf("%s: removing %s sent %+v, want it retracted", s, one, u)
		}
		if got := s.Reduce([]filter.Filter{one, two}); len(got) != 2 {
			t.Errorf("%s.Reduce kept %v, want both", s, got)
		}
	}
}

// TestFilterIdentityProperties runs FuzzFilterIdentity's property over a
// range of seeds.
func TestFilterIdentityProperties(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		checkFilterIdentity(t, seed)
	}
}

// FuzzFilterIdentity checks, over the test generators' filters, that
// identity is never coarser than the rendered ID: identical filters render
// and hash alike, and cmpFilterIdent is 0 exactly for identical filters,
// so the canonical order is total on distinct filters.
func FuzzFilterIdentity(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Fuzz(checkFilterIdentity)
}

func checkFilterIdentity(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	var fs []filter.Filter
	for i := 0; i < 24; i++ {
		fs = append(fs, randFilter(r), skewEntry(r).Filter)
	}
	fs = append(fs, coverEdgeFilters()...)
	// Rebuilt copies are identical to their originals: the constraints in
	// another order, every NaN with another payload.
	for _, f := range fs[:8] {
		cs := f.Constraints()
		r.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		for i := range cs {
			cs[i].Value = otherNaN(cs[i].Value)
			cs[i].Hi = otherNaN(cs[i].Hi)
			for k, v := range cs[i].Values {
				cs[i].Values[k] = otherNaN(v)
			}
		}
		g, err := filter.New(cs...)
		if err != nil {
			t.Fatal(err)
		}
		if !identFilterEqual(f, g) {
			t.Fatalf("rebuilt %s is not identical to itself", f)
		}
		fs = append(fs, g)
	}
	ids := make([]string, len(fs))
	hashes := make([]uint64, len(fs))
	for i, f := range fs {
		ids[i], hashes[i] = f.ID(), hashFilterIdent(fnvOffset64, f)
	}
	for i, a := range fs {
		for j, b := range fs {
			same := identFilterEqual(a, b)
			if same && (ids[i] != ids[j] || hashes[i] != hashes[j]) {
				t.Fatalf("identical %s and %s render %q / %q", a, b, ids[i], ids[j])
			}
			if (cmpFilterIdent(a, b) == 0) != same {
				t.Fatalf("%s vs %s: identical %v, cmpFilterIdent %d", a, b, same, cmpFilterIdent(a, b))
			}
			// Distinct IDs order distinct filters by themselves.
			if ids[i] == ids[j] && (cmpFilterCanonical(a, b) == 0) != same {
				t.Fatalf("%s vs %s: identical %v, cmpFilterCanonical %d", a, b, same, cmpFilterCanonical(a, b))
			}
		}
	}
}

// otherNaN returns a NaN with a payload other than the canonical one for
// a NaN, v otherwise.
func otherNaN(v message.Value) message.Value {
	if isNaNValue(v) {
		return message.Float(math.Float64frombits(0x7ff8_0000_0000_0abc))
	}
	return v
}
