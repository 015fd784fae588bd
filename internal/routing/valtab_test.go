package routing

import (
	"math"
	"testing"

	"repro/internal/filter"
	"repro/internal/message"
)

// TestConstraintIdentHashPinned pins hashConstraintIdent to the values it
// had before a range's low bound moved into Constraint.Value. Rows are
// ordered by this hash, so a changed value would reorder canonical match
// output and every parity suite that compares it.
func TestConstraintIdentHashPinned(t *testing.T) {
	pins := []struct {
		c    filter.Constraint
		want uint64
	}{
		{filter.EQ("sym", message.String("SYM0042")), 0x94f4c1456a33fb87},
		{filter.NE("b", message.Bool(true)), 0x4394c22fd8b006c2},
		{filter.LT("f", message.Float(math.Copysign(0, -1))), 0xa2a6ae7693dbabcf},
		{filter.GE("i", message.Int(math.MinInt64)), 0x774e88689307036c},
		{filter.Prefix("region", "eu-"), 0x17ab40eb8cfd502e},
		{filter.In("m", message.String("a"), message.Int(3), message.Float(math.NaN())), 0x3c628a7fd5847e09},
		{filter.Range("price", message.Int(100), message.Int(4099)), 0xd4854909ceb6f046},
		{filter.Range("f", message.Float(math.NaN()), message.Float(math.Inf(1))), 0xea036d3e89c1ecfd},
		{filter.Range("s", message.String("a"), message.String("m")), 0x15a63c60eea6ca91},
		{filter.Exists("e"), 0x6a23b90f9c383e8c},
	}
	cs := make([]filter.Constraint, len(pins))
	for i, p := range pins {
		cs[i] = p.c
		if got := hashConstraintIdent(fnvOffset64, p.c); got != p.want {
			t.Errorf("hash of %s = %#016x, want %#016x", p.c, got, p.want)
		}
	}
	if got := hashFilterIdent(fnvOffset64, filter.MustNew(cs...)); got != 0x5c3672f39c3e8580 {
		t.Errorf("filter hash = %#016x, want 0x5c3672f39c3e8580", got)
	}
}
