package broker

import (
	"reflect"
	"testing"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/wire"
)

func TestBrokerStats(t *testing.T) {
	h := newHarness(t, Options{}, [][2]wire.BrokerID{{"b1", "b2"}})
	b1, b2 := h.brokers["b1"], h.brokers["b2"]
	var rec recorder
	if err := b1.AttachClient("c", rec.deliver); err != nil {
		t.Fatal(err)
	}
	if err := b1.Subscribe(wire.Subscription{
		Filter: filter.MustParse(`k = "v" && k exists`), Client: "c", ID: "s",
	}); err != nil {
		t.Fatal(err)
	}
	h.settle()
	if err := b2.AttachClient("p", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b2.Publish("p", message.New(map[string]message.Value{
			"k": message.String("v"),
		})); err != nil {
			t.Fatal(err)
		}
	}
	h.settle()

	s2 := b2.Stats()
	if s2.SubEntries != 1 {
		t.Errorf("b2 SubEntries = %d, want 1", s2.SubEntries)
	}
	// Two constraints, one posting: a row is posted under its access
	// constraint only.
	if s2.SubIndex.Entries != 1 || s2.SubIndex.Attrs != 1 || s2.SubIndex.Postings != 1 {
		t.Errorf("b2 SubIndex = %+v, want 1 entry/attr/posting", s2.SubIndex)
	}
	if s2.Processed[wire.TypeSubscribe] != 1 {
		t.Errorf("b2 processed %d subscribes, want 1", s2.Processed[wire.TypeSubscribe])
	}
	s1 := b1.Stats()
	if s1.Processed[wire.TypePublish] != 3 {
		t.Errorf("b1 processed %d publishes, want 3", s1.Processed[wire.TypePublish])
	}
	if s1.MailboxDepth != 0 {
		t.Errorf("b1 mailbox depth = %d after settle", s1.MailboxDepth)
	}
	// The snapshot must be a copy.
	s1.Processed[wire.TypePublish] = 999
	if b1.Stats().Processed[wire.TypePublish] == 999 {
		t.Error("Stats aliases internal state")
	}

	// Batch-depth observability: the loop has drained batches, and every
	// batch holds at least one task.
	if s1.BatchesProcessed == 0 {
		t.Error("BatchesProcessed = 0 after traffic")
	}
	if s1.MaxBatchSize < 1 {
		t.Errorf("MaxBatchSize = %d, want >= 1", s1.MaxBatchSize)
	}
	if s1.MeanBatchSize <= 0 {
		t.Errorf("MeanBatchSize = %v, want > 0", s1.MeanBatchSize)
	}
}

// TestStatsRelocationPendingDrops checks that notifications dropped from a
// relocation-pending buffer (MaxBufferPerSub exceeded while the replay is
// outstanding) are surfaced in Stats.BufferDrops.
func TestStatsRelocationPendingDrops(t *testing.T) {
	h := newHarness(t, Options{MaxBufferPerSub: 4}, [][2]wire.BrokerID{{"b1", "b2"}})
	b1 := h.brokers["b1"]
	var rec recorder
	if err := b1.AttachClient("c", rec.deliver); err != nil {
		t.Fatal(err)
	}
	// A relocation re-subscription with no old path parks deliveries in
	// the pending buffer until a replay arrives (which never does here).
	if err := b1.Subscribe(wire.Subscription{
		Filter: filter.MustParse(`k = "v"`), Client: "c", ID: "s",
		Relocate: true, RelocEpoch: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := b1.AttachClient("p", nil); err != nil {
		t.Fatal(err)
	}
	const published = 10
	for i := 0; i < published; i++ {
		if err := b1.Publish("p", message.New(map[string]message.Value{
			"k": message.String("v"),
		})); err != nil {
			t.Fatal(err)
		}
	}
	h.settle()
	s := b1.Stats()
	want := uint64(published - 4)
	if s.BufferDrops != want {
		t.Errorf("BufferDrops = %d, want %d", s.BufferDrops, want)
	}
	if got := rec.len(); got != 0 {
		t.Errorf("deliveries while relocation pending = %d, want 0", got)
	}
}

// TestStatsCounterpartBufferDrops checks that a detached client's virtual
// counterpart overflowing MaxBufferPerSub counts its drops in
// Stats.BufferDrops, and that the newest notifications survive for the
// client's return.
func TestStatsCounterpartBufferDrops(t *testing.T) {
	h := newHarness(t, Options{MaxBufferPerSub: 4}, [][2]wire.BrokerID{{"b1", "b2"}})
	b1 := h.brokers["b1"]
	var rec recorder
	if err := b1.AttachClient("c", rec.deliver); err != nil {
		t.Fatal(err)
	}
	if err := b1.Subscribe(wire.Subscription{
		Filter: filter.MustParse(`k = "v"`), Client: "c", ID: "s", IsMobile: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := b1.DetachClient("c"); err != nil {
		t.Fatal(err)
	}
	if err := b1.AttachClient("p", nil); err != nil {
		t.Fatal(err)
	}
	const published = 10
	for i := 0; i < published; i++ {
		if err := b1.Publish("p", message.New(map[string]message.Value{
			"k": message.String("v"),
		})); err != nil {
			t.Fatal(err)
		}
	}
	h.settle()
	if s := b1.Stats(); s.BufferDrops != published-4 {
		t.Errorf("BufferDrops = %d, want %d", s.BufferDrops, published-4)
	}
	// Coming back at the same broker drains the four newest.
	if err := b1.AttachClient("c", rec.deliver); err != nil {
		t.Fatal(err)
	}
	if err := b1.Subscribe(wire.Subscription{
		Filter: filter.MustParse(`k = "v"`), Client: "c", ID: "s", Relocate: true,
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.seqs(), []uint64{7, 8, 9, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("drained seqs = %v, want %v", got, want)
	}
}
