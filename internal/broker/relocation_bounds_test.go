package broker

import (
	"reflect"
	"testing"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/wire"
)

// Tests for the bounded relocation buffers (Options.RelocBufferCap), the
// fetched-map garbage collection, and the deterministic expiry/replay
// interleavings. These drive expireRelocation/completeRelocation directly
// on the broker goroutine via exec, so every ordering is explicit — no
// timers, no sleeps.

func fetchedLen(t *testing.T, b *Broker) int {
	t.Helper()
	var n int
	if err := b.exec(func() { n = len(b.fetched) }); err != nil {
		t.Fatal(err)
	}
	return n
}

func pendingLen(t *testing.T, b *Broker) int {
	t.Helper()
	var n int
	if err := b.exec(func() { n = len(b.pending) }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRelocBufferCapBoundsPendingBuffer pins the pending-buffer bound: a
// relocation waiting for its replay parks live notifications, and the cap
// drops the oldest beyond RelocBufferCap — independently of the (larger)
// MaxBufferPerSub — counting each eviction.
func TestRelocBufferCapBoundsPendingBuffer(t *testing.T) {
	h := newHarness(t, Options{MaxBufferPerSub: 100, RelocBufferCap: 4, RelocTimeout: -1},
		[][2]wire.BrokerID{{"b1", "b2"}})
	b1 := h.brokers["b1"]
	var rec recorder
	if err := b1.AttachClient("c", rec.deliver); err != nil {
		t.Fatal(err)
	}
	if err := b1.Subscribe(wire.Subscription{
		Filter: filter.MustParse(`k = "v"`), Client: "c", ID: "s",
		Relocate: true, RelocEpoch: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := b1.AttachClient("p", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := b1.Publish("p", message.New(map[string]message.Value{
			"k": message.String("v"),
		})); err != nil {
			t.Fatal(err)
		}
	}
	h.settle()
	s := b1.Stats()
	if s.BufferDrops != 6 {
		t.Errorf("BufferDrops = %d, want 6", s.BufferDrops)
	}
	if s.RelocationsStarted != 1 || s.RelocationsCompleted != 0 {
		t.Errorf("lifecycle = %d started / %d completed, want 1 / 0",
			s.RelocationsStarted, s.RelocationsCompleted)
	}
	// A (late, empty) replay completes the relocation: only the 4 newest
	// parked notifications survive the cap and deliver, with fresh seqs.
	if err := b1.exec(func() {
		b1.completeRelocation(wire.Replay{Client: "c", ID: "s", NextSeq: 1})
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.seqs(), []uint64{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("delivered seqs = %v, want %v", got, want)
	}
	if s := b1.Stats(); s.RelocationsCompleted != 1 {
		t.Errorf("RelocationsCompleted = %d, want 1", s.RelocationsCompleted)
	}
}

// TestRelocBufferCapBoundsReplayParking pins the completion-side bound:
// replay items arriving for a client that has disconnected again are
// parked drop-oldest under the same cap, and the survivors drain on the
// next reattach.
func TestRelocBufferCapBoundsReplayParking(t *testing.T) {
	h := newHarness(t, Options{RelocBufferCap: 4, RelocTimeout: -1},
		[][2]wire.BrokerID{{"b1", "b2"}})
	b1 := h.brokers["b1"]
	var rec recorder
	if err := b1.AttachClient("c", rec.deliver); err != nil {
		t.Fatal(err)
	}
	if err := b1.Subscribe(wire.Subscription{
		Filter: filter.MustParse(`k = "v"`), Client: "c", ID: "s",
		Relocate: true, RelocEpoch: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := b1.DetachClient("c"); err != nil {
		t.Fatal(err)
	}
	replay := wire.Replay{Client: "c", ID: "s", NextSeq: 11}
	for seq := uint64(1); seq <= 10; seq++ {
		replay.Items = append(replay.Items, wire.SeqNotification{
			Seq:   seq,
			Notif: message.New(map[string]message.Value{"k": message.String("v")}),
		})
	}
	if err := b1.exec(func() { b1.completeRelocation(replay) }); err != nil {
		t.Fatal(err)
	}
	if s := b1.Stats(); s.BufferDrops != 6 {
		t.Errorf("BufferDrops = %d, want 6", s.BufferDrops)
	}
	// Reattaching at the same broker takes the local fast path and drains
	// the surviving tail of the buffer.
	if err := b1.AttachClient("c", rec.deliver); err != nil {
		t.Fatal(err)
	}
	if err := b1.Subscribe(wire.Subscription{
		Filter: filter.MustParse(`k = "v"`), Client: "c", ID: "s",
		Relocate: true, LastSeq: 0, RelocEpoch: 2,
	}); err != nil {
		t.Fatal(err)
	}
	h.settle()
	if got, want := rec.seqs(), []uint64{7, 8, 9, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("drained seqs = %v, want %v (newest survive drop-oldest)", got, want)
	}
}

// TestFetchedMapGC relocates a client twice along the chain and checks the
// fetch-dedup map returns to its pre-relocation size at each new border
// broker once the replay completes, and stays drained after unsubscribe —
// a roaming client must not grow broker state per relocation.
func TestFetchedMapGC(t *testing.T) {
	h, rec := relocHarness(t)
	if got := fetchedLen(t, h.brokers["b2"]); got != 0 {
		t.Fatalf("pre-relocation fetched size = %d, want 0", got)
	}
	// Hop 1: b4 -> b2, missing one notification.
	if err := h.brokers["b4"].DetachClient("C"); err != nil {
		t.Fatal(err)
	}
	pubV(t, h, 1)
	h.settle()
	if err := h.brokers["b2"].AttachClient("C", rec.deliver); err != nil {
		t.Fatal(err)
	}
	if err := h.brokers["b2"].Subscribe(wire.Subscription{
		Filter: filter.MustParse(`k = "v"`), Client: "C", ID: "s",
		Relocate: true, LastSeq: 0, RelocEpoch: 1,
	}); err != nil {
		t.Fatal(err)
	}
	h.settle()
	if rec.len() != 1 {
		t.Fatalf("first relocation delivered %d, want 1", rec.len())
	}
	if got := fetchedLen(t, h.brokers["b2"]); got != 0 {
		t.Errorf("b2 fetched size after completion = %d, want 0", got)
	}
	s2 := h.brokers["b2"].Stats()
	if s2.RelocationsStarted != 1 || s2.RelocationsCompleted != 1 || s2.RelocationsExpired != 0 {
		t.Errorf("b2 lifecycle = %d/%d/%d, want 1/1/0",
			s2.RelocationsStarted, s2.RelocationsCompleted, s2.RelocationsExpired)
	}
	// The old border broker observed one replay batch of one item.
	s4 := h.brokers["b4"].Stats()
	if s4.ReplayBatches != 1 || s4.ReplayMaxItems != 1 {
		t.Errorf("b4 replay distribution = %d batches / max %d, want 1 / 1",
			s4.ReplayBatches, s4.ReplayMaxItems)
	}

	// Hop 2: b2 -> b3, again missing one.
	if err := h.brokers["b2"].DetachClient("C"); err != nil {
		t.Fatal(err)
	}
	pubV(t, h, 2)
	h.settle()
	if err := h.brokers["b3"].AttachClient("C", rec.deliver); err != nil {
		t.Fatal(err)
	}
	if err := h.brokers["b3"].Subscribe(wire.Subscription{
		Filter: filter.MustParse(`k = "v"`), Client: "C", ID: "s",
		Relocate: true, LastSeq: 1, RelocEpoch: 2,
	}); err != nil {
		t.Fatal(err)
	}
	h.settle()
	if got, want := rec.seqs(), []uint64{1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("seqs after second relocation = %v, want %v", got, want)
	}
	if got := fetchedLen(t, h.brokers["b3"]); got != 0 {
		t.Errorf("b3 fetched size after completion = %d, want 0", got)
	}
	// Unsubscribing releases the remaining relocation state at the border.
	if err := h.brokers["b3"].Unsubscribe("C", "s"); err != nil {
		t.Fatal(err)
	}
	h.settle()
	if got := fetchedLen(t, h.brokers["b3"]); got != 0 {
		t.Errorf("b3 fetched size after unsubscribe = %d, want 0", got)
	}
	if got := pendingLen(t, h.brokers["b3"]); got != 0 {
		t.Errorf("b3 pending size after unsubscribe = %d, want 0", got)
	}
}

// TestStaleFetchAfterCompletionDropped pins the live-border guard in
// handleFetch: once a relocation completes, its fetch-dedup entry is
// garbage collected, so a same-epoch straggler fetch (possible when the
// new subscription met the old path at several junctions) must be dropped
// by the connected-client epoch check instead — flipping the live client
// entry away would sever the subscriber.
func TestStaleFetchAfterCompletionDropped(t *testing.T) {
	h, rec := relocHarness(t)
	if err := h.brokers["b4"].DetachClient("C"); err != nil {
		t.Fatal(err)
	}
	pubV(t, h, 1)
	h.settle()
	if err := h.brokers["b2"].AttachClient("C", rec.deliver); err != nil {
		t.Fatal(err)
	}
	if err := h.brokers["b2"].Subscribe(wire.Subscription{
		Filter: filter.MustParse(`k = "v"`), Client: "C", ID: "s",
		Relocate: true, LastSeq: 0, RelocEpoch: 1,
	}); err != nil {
		t.Fatal(err)
	}
	h.settle()
	if rec.len() != 1 {
		t.Fatalf("relocation delivered %d, want 1", rec.len())
	}
	if got := fetchedLen(t, h.brokers["b2"]); got != 0 {
		t.Fatalf("fetched not GCed, straggler test would be vacuous")
	}
	b2 := h.brokers["b2"]
	before, _ := b2.TableSizes()
	b2.Receive(inbound{
		From: wire.BrokerHop("b3"),
		Msg: wire.NewFetch(wire.Fetch{
			Client: "C", ID: "s",
			Filter: filter.MustParse(`k = "v"`), LastSeq: 0, Junction: "b3", Epoch: 1,
		}),
	})
	h.settle()
	after, _ := b2.TableSizes()
	if before != after {
		t.Errorf("straggler fetch mutated b2: %d -> %d", before, after)
	}
	pubV(t, h, 2)
	h.settle()
	if got, want := rec.seqs(), []uint64{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("seqs after straggler fetch = %v, want %v", got, want)
	}
}

// TestExpireThenLateReplay drives the expiry/replay race deterministically:
// the timeout fires first (flushing the pending buffer as live traffic),
// then the replay lands late. Nothing may be lost or duplicated — the
// flushed notifications keep their fresh seqs, the late replay items
// deliver as replayed, and live numbering continues from the counterpart's.
func TestExpireThenLateReplay(t *testing.T) {
	h := newHarness(t, Options{RelocTimeout: -1}, [][2]wire.BrokerID{{"b1", "b2"}})
	b1 := h.brokers["b1"]
	var rec recorder
	if err := b1.AttachClient("c", rec.deliver); err != nil {
		t.Fatal(err)
	}
	if err := b1.Subscribe(wire.Subscription{
		Filter: filter.MustParse(`k = "v"`), Client: "c", ID: "s",
		Relocate: true, RelocEpoch: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := b1.AttachClient("p", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b1.Publish("p", message.New(map[string]message.Value{
			"k": message.String("v"),
		})); err != nil {
			t.Fatal(err)
		}
	}
	h.settle()
	if rec.len() != 0 {
		t.Fatalf("deliveries before expiry = %d, want 0 (parked)", rec.len())
	}
	if err := b1.exec(func() { b1.expireRelocation("c/s", 1) }); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.seqs(), []uint64{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("flushed seqs = %v, want %v", got, want)
	}
	if s := b1.Stats(); s.RelocationsExpired != 1 {
		t.Errorf("RelocationsExpired = %d, want 1", s.RelocationsExpired)
	}
	// The replay arrives after the expiry already gave up on it.
	late := wire.Replay{Client: "c", ID: "s", NextSeq: 10}
	for _, seq := range []uint64{8, 9} {
		late.Items = append(late.Items, wire.SeqNotification{
			Seq:   seq,
			Notif: message.New(map[string]message.Value{"k": message.String("v")}),
		})
	}
	if err := b1.exec(func() { b1.completeRelocation(late) }); err != nil {
		t.Fatal(err)
	}
	// Live traffic continues from the counterpart's numbering.
	if err := b1.Publish("p", message.New(map[string]message.Value{
		"k": message.String("v"),
	})); err != nil {
		t.Fatal(err)
	}
	h.settle()
	if got, want := rec.seqs(), []uint64{1, 2, 3, 8, 9, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("final seqs = %v, want %v", got, want)
	}
	var replayed []bool
	for _, d := range rec.seqsDetail() {
		replayed = append(replayed, d.Replayed)
	}
	if want := []bool{false, false, false, true, true, false}; !reflect.DeepEqual(replayed, want) {
		t.Errorf("replayed flags = %v, want %v", replayed, want)
	}
}

// TestStaleEpochExpiryIsNoop pins the inverse race: a timer from an
// earlier relocation epoch fires while a newer epoch's relocation is
// pending. The stale expiry must not flush the newer pending buffer —
// that would hand out fresh seqs to notifications the imminent replay
// still orders — and the newer relocation must then complete normally.
func TestStaleEpochExpiryIsNoop(t *testing.T) {
	h := newHarness(t, Options{RelocTimeout: -1}, [][2]wire.BrokerID{{"b1", "b2"}})
	b1 := h.brokers["b1"]
	var rec recorder
	if err := b1.AttachClient("c", rec.deliver); err != nil {
		t.Fatal(err)
	}
	if err := b1.Subscribe(wire.Subscription{
		Filter: filter.MustParse(`k = "v"`), Client: "c", ID: "s",
		Relocate: true, RelocEpoch: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := b1.AttachClient("p", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := b1.Publish("p", message.New(map[string]message.Value{
			"k": message.String("v"),
		})); err != nil {
			t.Fatal(err)
		}
	}
	h.settle()
	// Epoch-1 timer fires against the epoch-2 pending entry: no-op.
	if err := b1.exec(func() { b1.expireRelocation("c/s", 1) }); err != nil {
		t.Fatal(err)
	}
	if rec.len() != 0 {
		t.Fatalf("stale expiry flushed %d notifications, want 0", rec.len())
	}
	if s := b1.Stats(); s.RelocationsExpired != 0 {
		t.Errorf("RelocationsExpired = %d, want 0", s.RelocationsExpired)
	}
	// The epoch-2 replay completes as if nothing happened.
	if err := b1.exec(func() {
		b1.completeRelocation(wire.Replay{Client: "c", ID: "s", NextSeq: 1})
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.seqs(), []uint64{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("seqs after completion = %v, want %v", got, want)
	}
	if s := b1.Stats(); s.RelocationsCompleted != 1 {
		t.Errorf("RelocationsCompleted = %d, want 1", s.RelocationsCompleted)
	}
}
