package message

import (
	"runtime"
	"strconv"
	"testing"
	"unsafe"
)

// TestInternTableFillIsLinear fills a fresh table to its cap with distinct
// strings. Publishing a full copy of the table on every miss would copy
// about n²/2 entries (8.4 M at this cap) and allocate hundreds of
// megabytes; batched publishing keeps the fill linear.
func TestInternTableFillIsLinear(t *testing.T) {
	const n = 1 << 12
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte("v" + strconv.Itoa(i))
	}
	tab := newInternTable(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		tab.bytes(k)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Errorf("filling %d entries allocated %d bytes, budget 4 MiB", n, alloc)
	} else {
		t.Logf("filling %d entries allocated %d bytes", n, alloc)
	}
	if got := len(*tab.tab.Load()); got != n {
		t.Fatalf("published table holds %d entries after the fill, want %d", got, n)
	}
	// Full: every string is published, a lookup returns the canonical
	// copy, and a new string is copied rather than interned.
	for _, k := range keys {
		if a, b := tab.bytes(k), tab.bytes(k); unsafe.StringData(a) != unsafe.StringData(b) {
			t.Fatalf("%s: two lookups returned different copies", k)
		}
	}
	tab.bytes([]byte("overflow"))
	if m := *tab.tab.Load(); len(m) != n {
		t.Errorf("table grew past its cap to %d entries", len(m))
	}
}

// TestInternTablePublishesPending: a string that is still pending keeps
// its canonical copy, and repeated lookups publish it, so a hot string
// leaves the mutex path after a bounded number of lookups.
func TestInternTablePublishesPending(t *testing.T) {
	tab := newInternTable(1 << 12)
	for i := 0; i < 100; i++ {
		tab.bytes([]byte("warm" + strconv.Itoa(i)))
	}
	hot := []byte("hot")
	first := tab.bytes(hot)
	for i := 0; i < 100; i++ {
		if s := tab.bytes(hot); unsafe.StringData(s) != unsafe.StringData(first) {
			t.Fatalf("lookup %d returned a different copy", i)
		}
	}
	if _, ok := (*tab.tab.Load())["hot"]; !ok {
		t.Errorf("a string looked up 100 times is still unpublished")
	}
}
