package filter

import (
	"testing"

	"repro/internal/message"
)

func notif(pairs ...any) message.Notification {
	attrs := make(map[string]message.Value)
	for i := 0; i+1 < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic("attr name must be string")
		}
		switch v := pairs[i+1].(type) {
		case string:
			attrs[name] = message.String(v)
		case int:
			attrs[name] = message.Int(int64(v))
		case float64:
			attrs[name] = message.Float(v)
		case bool:
			attrs[name] = message.Bool(v)
		default:
			panic("unsupported attr type")
		}
	}
	return message.New(attrs)
}

func TestConstraintMatching(t *testing.T) {
	n := notif("price", 100, "sym", "ACME", "active", true, "ratio", 0.5)
	tests := []struct {
		c    Constraint
		want bool
	}{
		{EQ("sym", message.String("ACME")), true},
		{EQ("sym", message.String("OTHER")), false},
		{NE("sym", message.String("OTHER")), true},
		{NE("sym", message.String("ACME")), false},
		{NE("sym", message.Int(1)), false}, // kind mismatch never matches
		{LT("price", message.Int(101)), true},
		{LT("price", message.Int(100)), false},
		{LE("price", message.Int(100)), true},
		{GT("price", message.Int(99)), true},
		{GT("price", message.Int(100)), false},
		{GE("price", message.Int(100)), true},
		{Prefix("sym", "AC"), true},
		{Prefix("sym", "CM"), false},
		{Suffix("sym", "ME"), true},
		{Suffix("sym", "AC"), false},
		{Contains("sym", "CM"), true},
		{Contains("sym", "XX"), false},
		{In("sym", message.String("X"), message.String("ACME")), true},
		{In("sym", message.String("X")), false},
		{Range("price", message.Int(50), message.Int(150)), true},
		{Range("price", message.Int(101), message.Int(150)), false},
		{Exists("active"), true},
		{Exists("missing"), false},
		{EQ("missing", message.Int(1)), false},
		{LT("sym", message.Int(5)), false}, // cross-kind ordering never matches
		{EQ("active", message.Bool(true)), true},
		{LE("ratio", message.Float(0.5)), true},
	}
	for _, tt := range tests {
		if got := tt.c.Matches(n); got != tt.want {
			t.Errorf("%s.Matches = %v, want %v", tt.c, got, tt.want)
		}
	}
}

func TestConstraintValidate(t *testing.T) {
	bad := []Constraint{
		{Attr: "", Op: OpEQ, Value: message.Int(1)},
		{Attr: "a", Op: OpEQ},                                                 // missing value
		{Attr: "a", Op: OpLT, Value: message.Bool(true)},                      // ordering on bool
		{Attr: "a", Op: OpPrefix, Value: message.Int(1)},                      // prefix needs string
		{Attr: "a", Op: OpIn},                                                 // empty set
		{Attr: "a", Op: OpRange, Value: message.Int(1)},                       // missing hi
		{Attr: "a", Op: OpRange, Value: message.Int(5), Hi: message.Int(1)},   // empty range
		{Attr: "a", Op: OpRange, Value: message.Int(1), Hi: message.Float(2)}, // mixed kinds
		{Attr: "a", Op: OpInvalid},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
	good := []Constraint{
		EQ("a", message.Int(1)),
		Exists("a"),
		Range("a", message.Int(1), message.Int(1)),
		In("a", message.String("x")),
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%s): %v", c, err)
		}
	}
}

func TestInCanonicalization(t *testing.T) {
	a := In("x", message.String("b"), message.String("a"), message.String("b"))
	b := In("x", message.String("a"), message.String("b"))
	if !a.Equal(b) {
		t.Errorf("In should dedupe and sort: %s vs %s", a, b)
	}
}

func TestFilterMatchesConjunction(t *testing.T) {
	f := MustNew(
		EQ("service", message.String("parking")),
		LT("cost", message.Int(3)),
	)
	if !f.Matches(notif("service", "parking", "cost", 2)) {
		t.Error("conjunction should match")
	}
	if f.Matches(notif("service", "parking", "cost", 5)) {
		t.Error("violated constraint should fail the conjunction")
	}
	if f.Matches(notif("cost", 2)) {
		t.Error("missing attribute should fail")
	}
	if !MatchAll().Matches(notif()) {
		t.Error("MatchAll must match the empty notification")
	}
}

func TestFilterCanonicalIdentity(t *testing.T) {
	a := MustNew(EQ("x", message.Int(1)), EQ("y", message.Int(2)))
	b := MustNew(EQ("y", message.Int(2)), EQ("x", message.Int(1)))
	if a.ID() != b.ID() {
		t.Error("constraint order must not affect ID")
	}
	if !a.Equal(b) {
		t.Error("reordered filters must be equal")
	}
	if MatchAll().ID() != "*" {
		t.Errorf("MatchAll ID = %q", MatchAll().ID())
	}
}

func TestFilterCovers(t *testing.T) {
	v := func(i int) message.Value { return message.Int(int64(i)) }
	s := func(ss string) message.Value { return message.String(ss) }
	tests := []struct {
		name string
		f, g Filter
		want bool
	}{
		{"matchall covers anything", MatchAll(), MustNew(EQ("a", v(1))), true},
		{"nothing covers matchall", MustNew(EQ("a", v(1))), MatchAll(), false},
		{"eq covers same eq", MustNew(EQ("a", v(1))), MustNew(EQ("a", v(1))), true},
		{"eq not covers other eq", MustNew(EQ("a", v(1))), MustNew(EQ("a", v(2))), false},
		{"lt covers smaller lt", MustNew(LT("a", v(10))), MustNew(LT("a", v(5))), true},
		{"lt not covers larger", MustNew(LT("a", v(5))), MustNew(LT("a", v(10))), false},
		{"le covers lt same bound", MustNew(LE("a", v(5))), MustNew(LT("a", v(5))), true},
		{"lt not covers le same bound", MustNew(LT("a", v(5))), MustNew(LE("a", v(5))), false},
		{"ge covers gt", MustNew(GE("a", v(5))), MustNew(GT("a", v(5))), true},
		{"range covers subrange", MustNew(Range("a", v(0), v(10))), MustNew(Range("a", v(2), v(8))), true},
		{"range not covers overlap", MustNew(Range("a", v(0), v(10))), MustNew(Range("a", v(5), v(15))), false},
		{"in covers subset", MustNew(In("a", s("x"), s("y"))), MustNew(In("a", s("x"))), true},
		{"in not covers superset", MustNew(In("a", s("x"))), MustNew(In("a", s("x"), s("y"))), false},
		{"in covers eq member", MustNew(In("a", s("x"), s("y"))), MustNew(EQ("a", s("x"))), true},
		{"prefix covers longer prefix", MustNew(Prefix("a", "re")), MustNew(Prefix("a", "rebeca")), true},
		{"prefix not covers shorter", MustNew(Prefix("a", "rebeca")), MustNew(Prefix("a", "re")), false},
		{"prefix covers matching eq", MustNew(Prefix("a", "re")), MustNew(EQ("a", s("rebeca"))), true},
		{"suffix covers longer suffix", MustNew(Suffix("a", "ca")), MustNew(Suffix("a", "rebeca")), true},
		{"contains covers prefix containing it", MustNew(Contains("a", "eb")), MustNew(Prefix("a", "rebeca")), true},
		{"exists covers everything", MustNew(Exists("a")), MustNew(EQ("a", v(1))), true},
		{"ne covers eq other", MustNew(NE("a", v(1))), MustNew(EQ("a", v(2))), true},
		{"ne not covers eq same", MustNew(NE("a", v(1))), MustNew(EQ("a", v(1))), false},
		{"ne covers range excluding", MustNew(NE("a", v(1))), MustNew(Range("a", v(2), v(9))), true},
		{"ge covers range above", MustNew(GE("a", v(0))), MustNew(Range("a", v(2), v(9))), true},
		{"range covers eq inside", MustNew(Range("a", v(0), v(10))), MustNew(EQ("a", v(3))), true},
		{"different attrs never cover", MustNew(EQ("a", v(1))), MustNew(EQ("b", v(1))), false},
		{
			"extra constraint in g is fine",
			MustNew(EQ("a", v(1))),
			MustNew(EQ("a", v(1)), EQ("b", v(2))),
			true,
		},
		{
			"extra constraint in f breaks cover",
			MustNew(EQ("a", v(1)), EQ("b", v(2))),
			MustNew(EQ("a", v(1))),
			false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.f.Covers(tt.g); got != tt.want {
				t.Errorf("%s Covers %s = %v, want %v", tt.f, tt.g, got, tt.want)
			}
		})
	}
}

func TestFilterOverlaps(t *testing.T) {
	v := func(i int) message.Value { return message.Int(int64(i)) }
	tests := []struct {
		name string
		f, g Filter
		want bool
	}{
		{"disjoint eq", MustNew(EQ("a", v(1))), MustNew(EQ("a", v(2))), false},
		{"same eq", MustNew(EQ("a", v(1))), MustNew(EQ("a", v(1))), true},
		{"disjoint ranges", MustNew(Range("a", v(0), v(4))), MustNew(Range("a", v(5), v(9))), false},
		{"touching ranges", MustNew(Range("a", v(0), v(5))), MustNew(Range("a", v(5), v(9))), true},
		{"lt vs ge disjoint", MustNew(LT("a", v(5))), MustNew(GE("a", v(5))), false},
		{"le vs ge at bound", MustNew(LE("a", v(5))), MustNew(GE("a", v(5))), true},
		{"different attrs overlap", MustNew(EQ("a", v(1))), MustNew(EQ("b", v(9))), true},
		{"matchall overlaps", MatchAll(), MustNew(EQ("a", v(1))), true},
		{"in vs range", MustNew(In("a", v(3), v(12))), MustNew(Range("a", v(0), v(5))), true},
		{"in vs range disjoint", MustNew(In("a", v(7), v(12))), MustNew(Range("a", v(0), v(5))), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.f.Overlaps(tt.g); got != tt.want {
				t.Errorf("Overlaps = %v, want %v", got, tt.want)
			}
			if got := tt.g.Overlaps(tt.f); got != tt.want {
				t.Errorf("Overlaps not symmetric")
			}
		})
	}
}

func TestFilterWithWithoutReplace(t *testing.T) {
	f := MustNew(EQ("a", message.Int(1)), EQ("b", message.Int(2)))
	g := f.Without("a")
	if len(g.ConstraintsOn("a")) != 0 || len(g.ConstraintsOn("b")) != 1 {
		t.Errorf("Without failed: %s", g)
	}
	h, err := f.Replace(EQ("a", message.Int(9)))
	if err != nil {
		t.Fatal(err)
	}
	if !h.Matches(notif("a", 9, "b", 2)) || h.Matches(notif("a", 1, "b", 2)) {
		t.Errorf("Replace failed: %s", h)
	}
	// Original untouched.
	if !f.Matches(notif("a", 1, "b", 2)) {
		t.Error("Replace mutated the receiver")
	}
}
