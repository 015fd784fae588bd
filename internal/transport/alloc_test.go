//go:build !race

package transport

import (
	"bytes"
	"io"
	"net"
	"testing"

	"repro/internal/message"
	"repro/internal/wire"
)

// nopBurst is a BatchReceiver that drops everything.
type nopBurst struct{}

func (nopBurst) Receive(Inbound)                       {}
func (nopBurst) ReceiveBurst(wire.Hop, []wire.Message) {}

// TestReadFramesAllocBudget: the reader carves a publish's notification
// and pass-through frame from chunks, so reading a burst of 64 small
// canonical publishes — the reader's own buffers included — costs at most
// a quarter of an allocation per frame, against three (attribute slice,
// notification box, frame copy) when each was allocated on its own.
// (Excluded under -race, which adds bookkeeping allocations.)
func TestReadFramesAllocBudget(t *testing.T) {
	const frames = 64
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = appendFrame(t, stream, wire.NewPublish(message.New(map[string]message.Value{
			"i":    message.Int(int64(i)),
			"kind": message.String("tick"),
		})))
	}
	r := bytes.NewReader(stream)
	read := func() {
		r.Reset(stream)
		if err := readFrames(r, wire.BrokerHop("p"), nopBurst{}); err != io.EOF {
			t.Fatal(err)
		}
	}
	read() // warm the interner
	per := testing.AllocsPerRun(100, read) / frames
	t.Logf("%.3f allocations per frame", per)
	if per > 0.25 {
		t.Errorf("readFrames allocates %.2f times per publish frame, budget is 0.25", per)
	}
}

// TestTCPLinkSendDeliverAllocs: a delivery written to a TCPLink is encoded
// into a pooled buffer and queued by value, so it allocates nothing —
// with or without a spliced notification body — and neither does the
// writer that puts it on the wire.
func TestTCPLinkSendDeliverAllocs(t *testing.T) {
	addr := handshakeOnly(t, func(conn *net.TCPConn) {
		defer conn.Close()
		_, _ = io.Copy(io.Discard, conn)
	})
	cl, err := DialTCP(addr, "client", &sink{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pub := pubMsg(7)
	if err := wire.Preencode(&pub); err != nil {
		t.Fatal(err)
	}
	d := wire.Deliver{Client: "alice", ID: "s", Item: wire.SeqNotification{Seq: 1, Notif: *pub.Notif}}
	for _, body := range [][]byte{nil, pub.NotifBody()} {
		send := func() {
			if err := cl.SendDeliver(d, body); err != nil {
				t.Fatal(err)
			}
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
			t.Errorf("SendDeliver (body %v) allocates %.1f times per delivery", body != nil, allocs)
		}
	}
}
