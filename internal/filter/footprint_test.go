package filter

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// selectiveShape formats the i-th of the three subscription shapes the
// selective_match benchmark installs: equality + range, prefix + equality
// + range, and equality + narrow range, over the same value domains.
func selectiveShape(rng *rand.Rand, i int) string {
	switch i % 3 {
	case 0:
		lo := rng.Intn(6000)
		return fmt.Sprintf(`sym = "SYM%04d" && price in [%d, %d]`, rng.Intn(2000), lo, lo+3999)
	case 1:
		lo := rng.Intn(993600)
		return fmt.Sprintf(`region prefix %q && kind = "kind%d" && volume in [%d, %d]`,
			[]string{"eu-", "us-", "ap-", "sa-"}[rng.Intn(4)], rng.Intn(8), lo, lo+6399)
	default:
		lo := rng.Intn(9968)
		return fmt.Sprintf(`exchange = "XCH%02d" && price in [%d, %d]`, rng.Intn(16), lo, lo+31)
	}
}

// TestFilterFootprint bounds the live heap a parsed selective_match filter
// holds: constraints, cover signature and whatever strings the filter
// keeps alive. The filter is the largest per-subscription object a broker
// holds.
func TestFilterFootprint(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(1))
	fs := make([]Filter, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range fs {
		f, err := Parse(selectiveShape(rng, i))
		if err != nil {
			t.Fatal(err)
		}
		fs[i] = f
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perFilter := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("%.0f live bytes per filter", perFilter)
	if perFilter > 380 {
		t.Errorf("%.0f live bytes per filter, budget 380", perFilter)
	}
	runtime.KeepAlive(fs)
}
