package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/routing"
)

// nestedCoverPool builds n filters in bench/'s sub_churn shape: every
// filter is tag = "c" && x in [lo, hi] with x in [0, 100 000), half of
// them wide intervals and half narrow ones inside a random wide one, so
// about half are covered while their outer interval is tracked.
func nestedCoverPool(n int, seed int64) []filter.Filter {
	rng := rand.New(rand.NewSource(seed))
	const domain = 100000
	type iv struct{ lo, hi int }
	mk := func(lo, hi int) filter.Filter {
		return filter.MustNew(
			filter.EQ("tag", message.String("c")),
			filter.Range("x", message.Int(int64(lo)), message.Int(int64(hi))))
	}
	fs := make([]filter.Filter, 0, n)
	wide := make([]iv, n/2)
	for i := range wide {
		w := 1000 + rng.Intn(4000)
		lo := rng.Intn(domain - w)
		wide[i] = iv{lo, lo + w}
		fs = append(fs, mk(lo, lo+w))
	}
	for len(fs) < n {
		outer := wide[rng.Intn(len(wide))]
		w := 10 + rng.Intn((outer.hi-outer.lo)/2)
		lo := outer.lo + rng.Intn(outer.hi-outer.lo-w)
		fs = append(fs, mk(lo, lo+w))
	}
	return fs
}

// coverChecksPerCycle tracks the whole pool, then removes and re-adds
// random members and returns the Covers evaluations per add+remove.
func coverChecksPerCycle(pool []filter.Filter, cycles int) float64 {
	x := routing.NewCoverIndex()
	for _, f := range pool {
		x.Add(f)
	}
	rng := rand.New(rand.NewSource(1))
	before := x.Stats().CoverChecks
	for i := 0; i < cycles; i++ {
		f := pool[rng.Intn(len(pool))]
		x.Remove(f)
		x.Add(f)
	}
	return float64(x.Stats().CoverChecks-before) / float64(cycles)
}

// TestCoverIndexScalesWithStructureNotSize pins the control plane's
// scaling by a count rather than a clock: the Covers evaluations an
// add+remove costs on a sub_churn-shaped pool depend on how the filters
// nest around and inside the changed one, not on how many are tracked
// (5.7 and 5.4 when this was written). The signature-bucket scan this
// index replaced spent 98 839 and 1 377 303: it rescanned every
// same-shaped filter per delta, and once more per dependent of a removed
// wide filter.
func TestCoverIndexScalesWithStructureNotSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 25 000-filter indexes")
	}
	small := coverChecksPerCycle(nestedCoverPool(5000, 3), 2000)
	large := coverChecksPerCycle(nestedCoverPool(20000, 3), 2000)
	t.Logf("cover checks per add+remove: %.1f at 5 000 filters, %.1f at 20 000", small, large)
	if small == 0 || large >= 1.5*small {
		t.Errorf("cover checks per add+remove grew %.2fx from 5 000 to 20 000 tracked filters (%.1f -> %.1f), want < 1.5x",
			large/small, small, large)
	}
}

// BenchmarkCoverIndexNested5k and BenchmarkCoverIndexNested20k time one
// add+remove cycle against a tracked sub_churn-shaped pool. Informational:
// the scaling claim is pinned by the count in
// TestCoverIndexScalesWithStructureNotSize.
func BenchmarkCoverIndexNested5k(b *testing.B)  { benchCoverIndexNested(b, 5000) }
func BenchmarkCoverIndexNested20k(b *testing.B) { benchCoverIndexNested(b, 20000) }

func benchCoverIndexNested(b *testing.B, n int) {
	pool := nestedCoverPool(n, 3)
	x := routing.NewCoverIndex()
	for _, f := range pool {
		x.Add(f)
	}
	rng := rand.New(rand.NewSource(1))
	before := x.Stats().CoverChecks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := pool[rng.Intn(len(pool))]
		x.Remove(f)
		x.Add(f)
	}
	b.ReportMetric(float64(x.Stats().CoverChecks-before)/float64(b.N), "cover-checks/op")
}
