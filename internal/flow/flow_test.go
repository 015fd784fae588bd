package flow

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// item is the test payload: a producer id and a per-producer sequence
// number, with an explicit admission class.
type item struct {
	producer int
	seq      int
	class    Class
}

func classify(v item) Class { return v.class }

// drainAll pops every queued item without blocking on an empty queue.
func drainAll(t *testing.T, q *Queue[item]) []item {
	t.Helper()
	var out []item
	for q.Len() > 0 {
		batch, ok := q.PopBatch()
		if !ok {
			break
		}
		out = append(out, batch...)
		q.Recycle(batch)
	}
	return out
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[item](Options{}, classify)
	for i := 0; i < 100; i++ {
		if err := q.Push(item{seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	got := drainAll(t, q)
	if len(got) != 100 {
		t.Fatalf("drained %d items, want 100", len(got))
	}
	for i, v := range got {
		if v.seq != i {
			t.Fatalf("item %d has seq %d, want %d", i, v.seq, i)
		}
	}
	s := q.Stats()
	if s.Pushed != 100 || s.HighWater != 100 || s.Depth != 0 {
		t.Errorf("stats = %+v, want pushed=100 highwater=100 depth=0", s)
	}
}

func TestQueuePushBurstFIFO(t *testing.T) {
	q := NewQueue[item](Options{}, classify)
	if _, err := q.PushBurst(50, func(i int) item { return item{seq: i} }); err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, q)
	for i, v := range got {
		if v.seq != i {
			t.Fatalf("item %d has seq %d, want %d", i, v.seq, i)
		}
	}
}

func TestQueueShedNewest(t *testing.T) {
	q := NewQueue[item](Options{Capacity: 3, Policy: ShedNewest}, classify)
	var shed int
	for i := 0; i < 6; i++ {
		if err := q.Push(item{seq: i}); err == ErrShed {
			shed++
		}
	}
	if shed != 3 {
		t.Fatalf("shed %d pushes, want 3", shed)
	}
	got := drainAll(t, q)
	if len(got) != 3 {
		t.Fatalf("kept %d items, want 3", len(got))
	}
	for i, v := range got {
		if v.seq != i { // tail drop keeps the oldest
			t.Errorf("item %d has seq %d, want %d", i, v.seq, i)
		}
	}
	s := q.Stats()
	if s.ShedNewest != 3 || s.HighWater != 3 {
		t.Errorf("stats = %+v, want shed=3 highwater=3", s)
	}
}

// TestQueuePushBurstCountsAdmitted: PushBurst reports how many items
// it admitted — under ShedNewest the shed data items are not counted,
// while control items over capacity are — so a caller holding
// per-item accounting (a link's flush slots) can give back the rest.
func TestQueuePushBurstCountsAdmitted(t *testing.T) {
	q := NewQueue[item](Options{Capacity: 3, Policy: ShedNewest}, classify)
	classes := []Class{Data, Data, Lossless, Data, Control, Data, Control}
	admitted, err := q.PushBurst(len(classes), func(i int) item { return item{seq: i, class: classes[i]} })
	if err != nil {
		t.Fatal(err)
	}
	// Two data and the lossless item fill the queue; the data items after
	// them are shed, the control items admitted over capacity.
	if admitted != 5 {
		t.Errorf("PushBurst admitted %d, want 5", admitted)
	}
	s := q.Stats()
	if s.ShedNewest != 2 || s.Pushed != uint64(admitted) || s.ControlOverflow != 2 {
		t.Errorf("stats = %+v, want shed=2 pushed=%d controlOverflow=2", s, admitted)
	}
	var seqs []int
	for _, v := range drainAll(t, q) {
		seqs = append(seqs, v.seq)
	}
	if want := []int{0, 1, 2, 4, 6}; !equalInts(seqs, want) {
		t.Errorf("queue holds %v, want %v", seqs, want)
	}
}

// TestQueuePushBurstCountsAdmittedBeforeClose: a burst stalled on a full
// Block queue fails with ErrClosed when the queue closes, reporting the
// items it had admitted before the stall.
func TestQueuePushBurstCountsAdmittedBeforeClose(t *testing.T) {
	q := NewQueue[item](Options{Capacity: 2, Policy: Block}, classify)
	type result struct {
		admitted int
		err      error
	}
	done := make(chan result, 1)
	go func() {
		n, err := q.PushBurst(5, func(i int) item { return item{seq: i} })
		done <- result{n, err}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for q.Stats().CreditStalls == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	q.Close()
	select {
	case r := <-done:
		if r.err != ErrClosed || r.admitted != 2 {
			t.Errorf("PushBurst = (%d, %v), want (2, ErrClosed)", r.admitted, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the stalled burst")
	}
	if _, err := q.PushBurst(1, func(int) item { return item{} }); err != ErrClosed {
		t.Errorf("PushBurst after Close = %v, want ErrClosed", err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQueueControlNeverShed(t *testing.T) {
	q := NewQueue[item](Options{Capacity: 2, Policy: ShedNewest}, classify)
	_ = q.Push(item{seq: 0})
	_ = q.Push(item{seq: 1})
	if err := q.Push(item{seq: 2, class: Control}); err != nil {
		t.Fatalf("control push over capacity failed: %v", err)
	}
	got := drainAll(t, q)
	if len(got) != 3 || got[2].class != Control {
		t.Fatalf("control item missing: %+v", got)
	}
	if s := q.Stats(); s.ControlOverflow != 1 || s.HighWater != 3 {
		t.Errorf("stats = %+v, want controlOverflow=1 highwater=3", s)
	}
}

// TestQueueControlNeverBlocks: a control push into a full Block queue
// must complete immediately (exec closures and routing updates cannot
// afford to wait behind notification credit).
func TestQueueControlNeverBlocks(t *testing.T) {
	q := NewQueue[item](Options{Capacity: 1, Policy: Block}, classify)
	_ = q.Push(item{seq: 0})
	done := make(chan struct{})
	go func() {
		_ = q.Push(item{seq: 1, class: Control})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("control push blocked on a full queue")
	}
}

// TestQueueBlockWatermark checks the credit cycle: a full queue stalls the
// producer, and the stall resolves only after the consumer drains.
// Everything arrives, in order, with depth bounded.
func TestQueueBlockWatermark(t *testing.T) {
	const capacity, total = 4, 100
	q := NewQueue[item](Options{Capacity: capacity, Policy: Block}, classify)
	go func() {
		for i := 0; i < total; i++ {
			if err := q.Push(item{seq: i}); err != nil {
				return
			}
		}
		q.Close()
	}()
	var got []item
	for {
		batch, ok := q.PopBatch()
		if !ok {
			break
		}
		got = append(got, batch...)
		q.Recycle(batch)
	}
	if len(got) != total {
		t.Fatalf("received %d items, want %d", len(got), total)
	}
	for i, v := range got {
		if v.seq != i {
			t.Fatalf("item %d has seq %d, want %d", i, v.seq, i)
		}
	}
	s := q.Stats()
	if s.HighWater > capacity {
		t.Errorf("high water %d exceeds capacity %d", s.HighWater, capacity)
	}
	if s.CreditStalls == 0 {
		t.Error("expected credit stalls with a slow consumer")
	}
	if s.ShedNewest != 0 {
		t.Errorf("Block policy lost items: %+v", s)
	}
}

// TestQueueBlockConcurrentProducers: several producers through a small
// Block window; per-producer FIFO must survive the stalls and every item
// must arrive exactly once.
func TestQueueBlockConcurrentProducers(t *testing.T) {
	const producers, each = 4, 200
	q := NewQueue[item](Options{Capacity: 8, Policy: Block}, classify)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := q.Push(item{producer: p, seq: i}); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	go func() {
		wg.Wait()
		q.Close()
	}()
	next := make([]int, producers)
	total := 0
	for {
		batch, ok := q.PopBatch()
		if !ok {
			break
		}
		for _, v := range batch {
			if v.seq != next[v.producer] {
				t.Fatalf("producer %d: got seq %d, want %d", v.producer, v.seq, next[v.producer])
			}
			next[v.producer]++
			total++
		}
		q.Recycle(batch)
	}
	if total != producers*each {
		t.Fatalf("received %d items, want %d", total, producers*each)
	}
	if s := q.Stats(); s.HighWater > 8 {
		t.Errorf("high water %d exceeds capacity 8", s.HighWater)
	}
}

func TestQueueCloseUnblocksProducer(t *testing.T) {
	q := NewQueue[item](Options{Capacity: 1, Policy: Block}, classify)
	_ = q.Push(item{seq: 0})
	errCh := make(chan error, 1)
	go func() { errCh <- q.Push(item{seq: 1}) }()
	time.Sleep(10 * time.Millisecond) // let the producer reach the stall
	q.Close()
	select {
	case err := <-errCh:
		if err != ErrClosed {
			t.Errorf("stalled push returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the stalled producer")
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue[item](Options{}, classify)
	_ = q.Push(item{seq: 0})
	_ = q.Push(item{seq: 1})
	q.Close()
	if err := q.Push(item{seq: 2}); err != ErrClosed {
		t.Errorf("push after close = %v, want ErrClosed", err)
	}
	batch, ok := q.PopBatch()
	if !ok || len(batch) != 2 {
		t.Fatalf("drain after close = %d items (ok=%v), want 2", len(batch), ok)
	}
	if _, ok := q.PopBatch(); ok {
		t.Error("drained queue still reports items after close")
	}
}

func TestQueueRecycleReuse(t *testing.T) {
	q := NewQueue[item](Options{}, classify)
	for i := 0; i < 16; i++ {
		_ = q.Push(item{seq: i})
	}
	batch, _ := q.PopBatch()
	c := cap(batch)
	q.Recycle(batch)
	for _, v := range batch[:cap(batch)][:len(batch)] {
		if v != (item{}) {
			t.Fatal("recycle left stale items in the kept array")
		}
	}
	_ = q.Push(item{seq: 99})
	batch2, _ := q.PopBatch()
	if cap(batch2) != c {
		t.Errorf("recycled array not reused: cap %d, want %d", cap(batch2), c)
	}
}

func TestQueueRecycleCap(t *testing.T) {
	q := NewQueue[item](Options{}, classify)
	big := make([]item, MaxRecycledCap+1)
	q.Recycle(big)
	_ = q.Push(item{seq: 0})
	batch, _ := q.PopBatch()
	if cap(batch) > MaxRecycledCap {
		t.Errorf("oversized array was retained (cap %d)", cap(batch))
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{Block, ShedNewest} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if got, err := ParsePolicy(" Shed-Newest "); err != nil || got != ShedNewest {
		t.Errorf("ParsePolicy is not case/space tolerant: %v, %v", got, err)
	}
	_, err := ParsePolicy("bogus")
	if err == nil {
		t.Fatal("bogus policy accepted")
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q should list %q", err, name)
		}
	}
}

// TestQueueLosslessStallsUnderDropPolicies: lossless items must never be
// shed — under the drop policy they stall the producer like Block credit
// until the consumer drains, and every item arrives.
func TestQueueLosslessStallsUnderDropPolicies(t *testing.T) {
	q := NewQueue[item](Options{Capacity: 2, Policy: ShedNewest}, classify)
	const total = 20
	pushErr := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := q.Push(item{seq: i, class: Lossless}); err != nil {
				pushErr <- err
				return
			}
		}
		q.Close()
	}()
	var got []item
	for {
		batch, ok := q.PopBatch()
		if !ok {
			break
		}
		got = append(got, batch...)
		q.Recycle(batch)
		time.Sleep(time.Millisecond) // keep the producer stalling
	}
	select {
	case err := <-pushErr:
		t.Fatalf("lossless push failed: %v", err)
	default:
	}
	if len(got) != total {
		t.Fatalf("received %d items, want %d", len(got), total)
	}
	for i, v := range got {
		if v.seq != i {
			t.Fatalf("item %d has seq %d, want %d", i, v.seq, i)
		}
	}
	s := q.Stats()
	if s.ShedNewest != 0 {
		t.Errorf("lossless items were lost: %+v", s)
	}
	if s.CreditStalls == 0 {
		t.Error("expected credit stalls from the full queue")
	}
	if s.HighWater > 2 {
		t.Errorf("high water %d exceeds capacity 2", s.HighWater)
	}
}
