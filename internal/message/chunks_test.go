package message

import (
	"math/rand"
	"strconv"
	"testing"
)

// TestChunksDecodeLikeUnchunked: decoding a stream of notifications of
// every size through one Chunks — small ones sharing chunks, ones with
// more attributes than a chunk holds getting their own — gives exactly
// the notifications of the unchunked decode, the canonical flag and the
// consumed length included, and every carved attribute slice is capped
// at its own length, so appending to one cannot overwrite its neighbour.
func TestChunksDecodeLikeUnchunked(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var c Chunks
	var got, want []Notification
	for i := 0; i < 2000; i++ {
		attrs := make([]Attr, rng.Intn(8))
		if i%200 == 0 {
			attrs = make([]Attr, attrChunkLen+1+rng.Intn(10))
		}
		for j := range attrs {
			attrs[j] = Attr{Name: "a" + strconv.Itoa(j), Value: Int(rng.Int63())}
		}
		buf := AppendNotification(nil, NewAttrs(attrs...))
		if i%3 == 0 && len(attrs) > 1 { // swap two attributes: not canonical
			buf = AppendNotification(nil, Notification{attrs: []Attr{attrs[1], attrs[0]}})
		}
		n, used, canon, err := c.DecodeNotificationCanonical(buf)
		m, mUsed, mCanon, mErr := DecodeNotificationCanonical(buf)
		if err != nil || mErr != nil || used != mUsed || canon != mCanon || !n.Equal(m) {
			t.Fatalf("notification %d: chunked (%v %d %v), unchunked (%v %d %v)", i, err, used, canon, mErr, mUsed, mCanon)
		}
		if cap(n.attrs) != len(n.attrs) {
			t.Fatalf("notification %d: carved slice has cap %d for %d attributes", i, cap(n.attrs), len(n.attrs))
		}
		got = append(got, *c.Box(n))
		want = append(want, m)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("notification %d changed after later decodes", i)
		}
	}
}

// TestCloneOwnsItsStorage: a clone is equal and shares nothing.
func TestCloneOwnsItsStorage(t *testing.T) {
	n := NewAttrs(Attr{Name: "a", Value: Int(1)}, Attr{Name: "b", Value: String("x")})
	c := n.Clone()
	if !c.Equal(n) || &c.attrs[0] == &n.attrs[0] {
		t.Fatal("Clone is not an equal copy with its own attributes")
	}
	if empty := (Notification{}).Clone(); empty.Len() != 0 {
		t.Fatal("clone of the empty notification is not empty")
	}
}
