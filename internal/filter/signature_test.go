package filter

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/message"
)

// randomSigFilter draws a filter over a small attribute vocabulary with a
// mix of signature-representable and opaque constraints, including
// multi-constraint attributes (which get no cell) and float/string/bool
// kinds.
func randomSigFilter(t *testing.T, rng *rand.Rand) Filter {
	attrs := []string{"p", "q", "s", "t"}
	n := rng.Intn(3) + 1
	cs := make([]Constraint, 0, n+1)
	for i := 0; i < n; i++ {
		attr := attrs[rng.Intn(len(attrs))]
		switch rng.Intn(12) {
		case 0:
			cs = append(cs, EQ(attr, message.Int(int64(rng.Intn(20)))))
		case 1:
			cs = append(cs, EQ(attr, message.Float(float64(rng.Intn(20)))))
		case 2:
			cs = append(cs, EQ(attr, message.String([]string{"a", "b", "ab"}[rng.Intn(3)])))
		case 3:
			cs = append(cs, EQ(attr, message.Bool(rng.Intn(2) == 0)))
		case 4:
			cs = append(cs, LT(attr, message.Int(int64(rng.Intn(20)))))
		case 5:
			cs = append(cs, LE(attr, message.Int(int64(rng.Intn(20)))))
		case 6:
			cs = append(cs, GT(attr, message.Int(int64(rng.Intn(20)))))
		case 7:
			cs = append(cs, GE(attr, message.Float(float64(rng.Intn(20)))))
		case 8:
			lo := rng.Intn(15)
			cs = append(cs, Range(attr, message.Int(int64(lo)), message.Int(int64(lo+rng.Intn(8)))))
		case 9:
			cs = append(cs, NE(attr, message.Int(int64(rng.Intn(20)))))
		case 10:
			cs = append(cs, In(attr, message.Int(int64(rng.Intn(5))), message.Int(int64(rng.Intn(20)))))
		default:
			cs = append(cs, Exists(attr))
		}
	}
	f, err := New(cs...)
	if err != nil {
		t.Fatalf("random filter: %v", err)
	}
	return f
}

// TestSignatureRejectSound is the load-bearing property of the fast path:
// whenever the signatures reject a pair, the full constraint walk must
// agree that f does not cover g. (The converse — signatures passing a
// non-covering pair — is allowed and settled by the walk.)
func TestSignatureRejectSound(t *testing.T) {
	rng := rand.New(rand.NewSource(9291))
	for trial := 0; trial < 20000; trial++ {
		f, g := randomSigFilter(t, rng), randomSigFilter(t, rng)
		if !f.canCover(&g) && f.coversFull(g) {
			t.Fatalf("signature rejected a real cover: %s covers %s", f, g)
		}
		if f.Covers(g) != f.coversFull(g) {
			t.Fatalf("Covers diverges from coversFull for %s vs %s", f, g)
		}
	}
}

// TestSignatureLargeIntPrecision pins the float64-widening soundness rule:
// int bounds beyond 2^53 collapse to equal floats, and the signature must
// fall through to the exact check instead of rejecting.
func TestSignatureLargeIntPrecision(t *testing.T) {
	big := int64(1) << 60
	wide := MustNew(Range("p", message.Int(0), message.Int(big+1)))
	narrow := MustNew(Range("p", message.Int(0), message.Int(big)))
	if !wide.Covers(narrow) {
		t.Error("wide must cover narrow despite float-equal hulls")
	}
	if narrow.Covers(wide) {
		t.Error("narrow must not cover wide: the exact walk decides")
	}
}

func TestSignatureCells(t *testing.T) {
	f := MustNew(
		Range("p", message.Int(2), message.Int(9)),
		EQ("svc", message.String("parking")),
		LT("q", message.Int(5)),
		GE("q", message.Int(0)), // two constraints on q: no cell
		NE("r", message.Int(1)), // NE: no cell
	)
	cells := f.sig.cells
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2 (p hull + svc point): %+v", len(cells), cells)
	}
	if f.At(int(cells[0].c)).Attr != "p" || cells[0].lo != 2 || cells[0].hi != 9 {
		t.Errorf("p cell = %+v", cells[0])
	}
	if c := f.At(int(cells[1].c)); c.Attr != "svc" || !cells[1].isPoint() || !c.Value.Equal(message.String("parking")) {
		t.Errorf("svc cell = %+v", cells[1])
	}
	unb := MustNew(LT("p", message.Int(5)))
	if c := unb.sig.cells[0]; !math.IsInf(c.lo, -1) || c.hi != 5 {
		t.Errorf("LT cell = %+v", c)
	}
}

// TestSignatureBloom pins the attribute fingerprint canCover rejects on
// first: one bit per constrained attribute, a subset for a subset of
// attributes, and recomputed by Without.
func TestSignatureBloom(t *testing.T) {
	if MatchAll().sig.bloom != 0 {
		t.Error("match-all bloom must be 0")
	}
	f := MustNew(EQ("a", message.Int(1)))
	g := MustNew(EQ("a", message.Int(2)), LT("b", message.Int(3)))
	if f.sig.bloom&^g.sig.bloom != 0 {
		t.Error("attrs(f) ⊆ attrs(g) must imply bloom subset")
	}
	if g.sig.bloom&^f.sig.bloom == 0 {
		t.Error("b's bit should not appear in f's bloom")
	}
	// Without recomputes the signature.
	if got := g.Without("b").sig.bloom; got != f.sig.bloom {
		t.Errorf("Without bloom = %#x, want %#x", got, f.sig.bloom)
	}
}
