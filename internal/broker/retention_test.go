package broker

import (
	"net"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/transport"
	"repro/internal/wire"
)

// storageTap sits between a TCP link's reader and the broker: it records
// where each inbound publish's attributes live — in the reader's chunks —
// and passes the burst on.
type storageTap struct {
	b     *Broker
	mu    sync.Mutex
	addrs map[unsafe.Pointer]bool
}

func (s *storageTap) Receive(in transport.Inbound) {
	s.ReceiveBurst(in.From, []wire.Message{in.Msg})
}

func (s *storageTap) ReceiveBurst(from wire.Hop, ms []wire.Message) {
	s.mu.Lock()
	for _, m := range ms {
		if m.Type == wire.TypePublish {
			s.addrs[attrStorage(*m.Notif)] = true
		}
	}
	s.mu.Unlock()
	s.b.ReceiveBurst(from, ms)
}

func (s *storageTap) seen(n message.Notification) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addrs[attrStorage(n)]
}

// TestBufferedNotificationsOwnTheirStorage: publishes read from a TCP
// link are decoded into the link reader's shared chunks. A detached
// client's virtual-counterpart buffer and a relocating subscription's
// pending buffer outlive the publish's handling, so each must hold a
// copy with storage of its own (deliverTo's Clone), never the decoded
// notification that pins a chunk.
func TestBufferedNotificationsOwnTheirStorage(t *testing.T) {
	if !attrStorageSound() {
		t.Fatal("message.Notification is no longer a single attribute slice; update attrStorage")
	}
	b := New("border", Options{RelocTimeout: -1})
	b.Start()
	defer b.Close()
	f := filter.MustNew(filter.Exists("i"))
	for _, c := range []wire.ClientID{"gone", "mover"} {
		if err := b.AttachClient(c, func(wire.Deliver) {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Subscribe(wire.Subscription{Client: "gone", ID: "s", Filter: f}); err != nil {
		t.Fatal(err)
	}
	if err := b.DetachClient("gone"); err != nil {
		t.Fatal(err)
	}
	// A relocation re-subscription with no replay coming (the timeout is
	// off): its pending buffer keeps what arrives.
	if err := b.Subscribe(wire.Subscription{Client: "mover", ID: "s", Filter: f,
		IsMobile: true, Relocate: true, RelocEpoch: 1}); err != nil {
		t.Fatal(err)
	}

	tap := &storageTap{b: b, addrs: make(map[unsafe.Pointer]bool)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if l, err := transport.AcceptTCP(conn, "border", tap); err == nil {
			t.Cleanup(func() { _ = l.Close() })
		}
	}()
	up, err := transport.DialTCP(ln.Addr().String(), "up", transport.ReceiverFunc(func(transport.Inbound) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	const n = 40
	burst := make([]wire.Message, n)
	for i := range burst {
		burst[i] = wire.NewPublish(message.New(map[string]message.Value{"i": message.Int(int64(i))}))
	}
	if err := up.SendBatch(burst); err != nil {
		t.Fatal(err)
	}

	for _, c := range []wire.ClientID{"gone", "mover"} {
		var held []message.Notification
		deadline := time.Now().Add(5 * time.Second)
		for len(held) < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			held = b.heldNotifs(c, "s")
		}
		if len(held) != n {
			t.Fatalf("%s holds %d notifications, want %d", c, len(held), n)
		}
		for i, h := range held {
			if v, _ := h.Get("i"); v.IntVal() != int64(i) {
				t.Fatalf("%s holds %v at %d", c, h, i)
			}
			if tap.seen(h) {
				t.Fatalf("%s's buffer holds notification %d in the link reader's storage", c, i)
			}
		}
	}
}
