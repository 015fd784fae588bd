package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/message"
)

// The golden corpus pins the wire format across changes to the in-memory
// value and filter layout: testdata/golden_frames.txt holds one
// "name hex" line per message below, encoded before any such change.
// Encoding must keep producing those bytes, and decoding them must give
// back the same content.

// goldenValues covers every value kind and the float edge cases whose bits
// a compact in-memory layout could lose: NaN payloads, signed zeros,
// infinities and subnormals.
var goldenValues = []message.Value{
	message.String(""),
	message.String("parking"),
	message.String("ünïcode\x00bytes"),
	message.Int(0),
	message.Int(-1),
	message.Int(300),
	message.Int(math.MinInt64),
	message.Int(math.MaxInt64),
	message.Float(0),
	message.Float(math.Copysign(0, -1)),
	message.Float(1.25),
	message.Float(-3.5e300),
	message.Float(math.Inf(1)),
	message.Float(math.Inf(-1)),
	message.Float(math.NaN()),
	message.Float(math.Float64frombits(0x7ff0000000000123)), // signalling NaN payload
	message.Float(math.Float64frombits(0xfff8000000000001)), // negative quiet NaN
	message.Float(math.SmallestNonzeroFloat64),
	message.Float(-math.Float64frombits(0x000fffffffffffff)), // largest subnormal, negated
	message.Bool(false),
	message.Bool(true),
}

// goldenNotif carries every golden value under its own attribute name.
func goldenNotif() message.Notification {
	attrs := make([]message.Attr, len(goldenValues))
	for i, v := range goldenValues {
		attrs[i] = message.Attr{Name: string(rune('a'+i/10)) + string(rune('0'+i%10)), Value: v}
	}
	return message.NewAttrs(attrs...)
}

// goldenFilters has one filter per operator, with every operand kind the
// operator accepts.
func goldenFilters() map[string]filter.Filter {
	s, i, fl, b := message.String("x"), message.Int(-7), message.Float(2.5), message.Bool(true)
	nz := message.Float(math.Copysign(0, -1))
	return map[string]filter.Filter{
		"eq": filter.MustNew(filter.EQ("s", s), filter.EQ("i", i), filter.EQ("f", fl), filter.EQ("b", b),
			filter.EQ("z", nz), filter.EQ("n", message.Float(math.NaN()))),
		"ne": filter.MustNew(filter.NE("s", s), filter.NE("i", i), filter.NE("f", fl), filter.NE("b", message.Bool(false))),
		"lt": filter.MustNew(filter.LT("s", s), filter.LT("i", message.Int(math.MinInt64)), filter.LT("f", message.Float(math.Inf(1)))),
		"le": filter.MustNew(filter.LE("s", s), filter.LE("i", i), filter.LE("f", nz)),
		"gt": filter.MustNew(filter.GT("s", s), filter.GT("i", message.Int(math.MaxInt64)), filter.GT("f", message.Float(math.Inf(-1)))),
		"ge": filter.MustNew(filter.GE("s", s), filter.GE("i", i), filter.GE("f", message.Float(math.SmallestNonzeroFloat64))),
		"string_ops": filter.MustNew(filter.Prefix("p", "Reb"), filter.Suffix("q", "eca"), filter.Contains("r", ""),
			filter.Contains("r", "bec")),
		"in": filter.MustNew(filter.In("m", s, i, fl, b, message.String(""), message.Int(3), message.Float(math.NaN()))),
		"range": filter.MustNew(
			filter.Range("i", message.Int(math.MinInt64), message.Int(math.MaxInt64)),
			filter.Range("f", message.Float(math.Inf(-1)), message.Float(-0.5)),
			filter.Range("s", message.String("a"), message.String("m")),
			filter.Range("z", nz, message.Float(0)),
			filter.Range("n", message.Float(math.NaN()), message.Float(1))),
		"exists":    filter.MustNew(filter.Exists("e"), filter.Exists("f")),
		"match_all": filter.MatchAll(),
		"mixed":     sampleFilter(),
	}
}

type goldenCase struct {
	name string
	msg  Message
}

func goldenCases() []goldenCase {
	n := goldenNotif()
	cases := []goldenCase{
		{"publish_all_kinds", NewPublish(n)},
		{"publish_sample", NewPublish(sampleNotif())},
		{"publish_empty", NewPublish(message.New(nil))},
		{"deliver_all_kinds", NewDeliver(Deliver{Client: "C", ID: "s1", Item: SeqNotification{Seq: 1 << 40, Notif: n}})},
		{"deliver_replayed", NewDeliver(Deliver{Client: "alice", ID: "q", Item: SeqNotification{Seq: 7, Notif: sampleNotif()}, Replayed: true})},
	}
	fs := goldenFilters()
	for _, name := range []string{"eq", "ne", "lt", "le", "gt", "ge", "string_ops", "in", "range", "exists", "match_all", "mixed"} {
		cases = append(cases, goldenCase{"subscribe_" + name, NewSubscribe(Subscription{Filter: fs[name], Client: "C", ID: SubID(name)})})
	}
	cases = append(cases,
		goldenCase{"subscribe_mobile", NewSubscribe(Subscription{
			Filter: fs["range"], Client: "C", ID: "m", IsMobile: true, Presubscribe: true,
			Relocate: true, LastSeq: 99, RelocEpoch: 3,
		})},
		goldenCase{"subscribe_locdep", NewSubscribe(Subscription{
			Filter: fs["in"], Client: "C", ID: "l", LocDependent: true, LocAttr: "location",
			GraphName: "fig7", Loc: "a", Delta: time.Second, CumDelay: -170 * time.Millisecond,
			Steps: 2, NextMultiple: 3,
		})},
		goldenCase{"unsubscribe_eq", NewUnsubscribe(Subscription{Filter: fs["eq"]})},
		goldenCase{"advertise_range", NewAdvertise(Subscription{Filter: fs["range"]})},
		goldenCase{"fetch_mixed", NewFetch(Fetch{Client: "C", ID: "s", Filter: fs["mixed"], LastSeq: 42, Junction: "b4", Epoch: 2})},
		goldenCase{"replay_all_kinds", NewReplay(Replay{Client: "C", ID: "s", From: "b6", NextSeq: 200,
			Items: []SeqNotification{{Seq: 124, Notif: n}, {Seq: 125, Notif: sampleNotif()}}})},
	)
	return cases
}

const goldenPath = "testdata/golden_frames.txt"

func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hx, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		out[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameValue is Value.Equal, except that two NaNs are the same when their
// bits are: the corpus must carry NaN payloads through unchanged.
func sameValue(a, b message.Value) bool {
	if a.Kind() == message.KindFloat && b.Kind() == message.KindFloat && a.FloatVal() != a.FloatVal() {
		return math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal())
	}
	return a.Equal(b) && (a.Kind() != message.KindFloat ||
		math.Signbit(a.FloatVal()) == math.Signbit(b.FloatVal()))
}

func sameNotif(a, b message.Notification) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i).Name != b.At(i).Name || !sameValue(a.At(i).Value, b.At(i).Value) {
			return false
		}
	}
	return true
}

func sameFilter(a, b filter.Filter) bool {
	if a.Len() != b.Len() || a.ID() != b.ID() || a.String() != b.String() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		c, d := a.At(i), b.At(i)
		if c.Attr != d.Attr || c.Op != d.Op || len(c.Values) != len(d.Values) ||
			!sameValue(c.Value, d.Value) || !sameValue(c.Hi, d.Hi) {
			return false
		}
		for j := range c.Values {
			if !sameValue(c.Values[j], d.Values[j]) {
				return false
			}
		}
	}
	return true
}

// sameSub compares everything but the filter with DeepEqual (the filter's
// precomputed signature is not part of its content) and the filter with
// sameFilter.
func sameSub(a, b *Subscription) bool {
	ca, cb := *a, *b
	ca.Filter, cb.Filter = filter.Filter{}, filter.Filter{}
	return reflect.DeepEqual(ca, cb) && sameFilter(a.Filter, b.Filter)
}

func sameMessage(a, b Message) bool {
	if a.Type != b.Type {
		return false
	}
	switch a.Type {
	case TypePublish:
		return sameNotif(*a.Notif, *b.Notif)
	case TypeDeliver:
		x, y := *a.Deliver, *b.Deliver
		return x.Client == y.Client && x.ID == y.ID && x.Replayed == y.Replayed &&
			x.Item.Seq == y.Item.Seq && sameNotif(x.Item.Notif, y.Item.Notif)
	case TypeFetch:
		x, y := *a.Fetch, *b.Fetch
		return x.Client == y.Client && x.ID == y.ID && x.LastSeq == y.LastSeq &&
			x.Junction == y.Junction && x.Epoch == y.Epoch && sameFilter(x.Filter, y.Filter)
	case TypeReplay:
		x, y := *a.Replay, *b.Replay
		if x.Client != y.Client || x.ID != y.ID || x.From != y.From || x.NextSeq != y.NextSeq || len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			if x.Items[i].Seq != y.Items[i].Seq || !sameNotif(x.Items[i].Notif, y.Items[i].Notif) {
				return false
			}
		}
		return true
	default:
		return sameSub(a.Sub, b.Sub)
	}
}

// TestWireGoldenCorpus: every golden message encodes to its recorded bytes,
// and the recorded bytes decode to the same content and re-encode
// unchanged. A mismatch prints the line the corpus would need, so an
// intended format change shows exactly which frames it touches.
func TestWireGoldenCorpus(t *testing.T) {
	golden := readGolden(t)
	cases := goldenCases()
	if len(golden) != len(cases) {
		t.Errorf("corpus has %d frames, test builds %d", len(golden), len(cases))
	}
	for _, tc := range cases {
		want, ok := golden[tc.name]
		if !ok {
			t.Errorf("no golden frame for %s", tc.name)
			continue
		}
		got, err := Encode(tc.msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding changed\n got  %s %x\n want %s %x", tc.name, tc.name, got, tc.name, want)
		}
		m, err := Decode(bytes.Clone(want))
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !sameMessage(m, tc.msg) {
			t.Errorf("%s: decoded content differs: %s, want %s", tc.name, m, tc.msg)
		}
		m.Frame = nil
		again, err := Encode(m)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", tc.name, err)
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: decode→encode changed the bytes\n got  %x\n want %x", tc.name, again, want)
		}
	}
}
