package broker

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/transport"
	"repro/internal/wire"
)

// deliveryRecorder is a frame-encoding client link double: it records
// each SendDeliver call's delivery and spliced body.
type deliveryRecorder struct {
	mu     sync.Mutex
	ds     []wire.Deliver
	bodies [][]byte
}

var _ transport.DeliverySender = (*deliveryRecorder)(nil)

func (r *deliveryRecorder) Send(wire.Message) error { return nil }
func (r *deliveryRecorder) Close() error            { return nil }

func (r *deliveryRecorder) SendDeliver(d wire.Deliver, body []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ds = append(r.ds, d)
	r.bodies = append(r.bodies, bytes.Clone(body))
	return nil
}

// spliceInputs returns three publishes of notifications matching
// `a exists`: one decoded from a canonical frame (it carries the frame),
// one built in memory (no frame), and one decoded from a frame whose
// attributes are out of wire order (decoded, normalized, no frame).
func spliceInputs(t *testing.T) (canonical, unframed, foreign wire.Message) {
	t.Helper()
	frame, err := wire.Encode(wire.NewPublish(message.New(map[string]message.Value{
		"a": message.Int(1), "b": message.String("x"),
	})))
	if err != nil {
		t.Fatal(err)
	}
	if canonical, err = wire.Decode(frame); err != nil || canonical.Frame == nil {
		t.Fatalf("canonical publish decoded to %v (frame %v)", err, canonical.Frame != nil)
	}
	unframed = wire.NewPublish(message.New(map[string]message.Value{"a": message.Int(2)}))
	// version, type, count=2, then "b" before "a".
	raw := []byte{1, byte(wire.TypePublish), 2, 1, 'b'}
	raw = message.AppendValue(raw, message.Int(3))
	raw = append(raw, 1, 'a')
	raw = message.AppendValue(raw, message.Int(3))
	if foreign, err = wire.Decode(raw); err != nil || foreign.Frame != nil {
		t.Fatalf("foreign publish decoded to %v (frame %v)", err, foreign.Frame != nil)
	}
	return canonical, unframed, foreign
}

// TestRemoteDeliverySplicesOnlyCanonicalFrames: a remote client on a
// frame-encoding link is handed the publish's notification bytes only
// when the publish arrived with its canonical frame; a publish without a
// frame, or from a frame that was not canonical, is delivered re-encoded.
// Either way the delivery frame is the delivery's own encoding.
func TestRemoteDeliverySplicesOnlyCanonicalFrames(t *testing.T) {
	b := New("b1", Options{})
	b.Start()
	defer b.Close()
	rec := &deliveryRecorder{}
	if err := b.AttachRemoteClient("alice", rec); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(wire.Subscription{Client: "alice", ID: "s", Filter: filter.MustNew(filter.Exists("a"))}); err != nil {
		t.Fatal(err)
	}
	canonical, unframed, foreign := spliceInputs(t)
	for _, m := range []wire.Message{canonical, unframed, foreign} {
		b.Receive(transport.Inbound{From: wire.BrokerHop("up"), Msg: m})
	}
	b.Barrier()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.ds) != 3 {
		t.Fatalf("%d deliveries, want 3", len(rec.ds))
	}
	if !bytes.Equal(rec.bodies[0], canonical.Frame[2:]) {
		t.Error("the canonical publish's delivery did not splice its frame")
	}
	for i, what := range []string{"", "unframed", "foreign"} {
		if i > 0 && rec.bodies[i] != nil {
			t.Errorf("the %s publish's delivery spliced %x", what, rec.bodies[i])
		}
		d := rec.ds[i]
		want, err := wire.AppendEncode(nil, wire.NewDeliver(d))
		if err != nil {
			t.Fatal(err)
		}
		if got := wire.AppendDeliver(nil, &d, rec.bodies[i]); !bytes.Equal(got, want) {
			t.Errorf("delivery %d frame %x, its encoding %x", i, got, want)
		}
	}
}

// TestRemoteDeliveryBytesOverTCP: over a real TCP client link, every
// delivery frame on the wire is the canonical encoding of the delivery,
// whether its notification bytes were spliced from the publish frame or
// encoded — including the foreign publish, whose out-of-order bytes must
// not reach the client.
func TestRemoteDeliveryBytesOverTCP(t *testing.T) {
	b := New("b1", Options{})
	b.Start()
	defer b.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	attached := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			attached <- err
			return
		}
		link, err := transport.AcceptTCP(conn, "b1", b)
		if err != nil {
			attached <- err
			return
		}
		t.Cleanup(func() { _ = link.Close() })
		attached <- b.AttachRemoteClient(link.Peer().Client, link)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(rawFrame([]byte("client/alice"))); err != nil {
		t.Fatal(err)
	}
	if _, err := readRawFrame(conn); err != nil { // the broker's identity
		t.Fatal(err)
	}
	if err := <-attached; err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(wire.Subscription{Client: "alice", ID: "s", Filter: filter.MustNew(filter.Exists("a"))}); err != nil {
		t.Fatal(err)
	}
	canonical, unframed, foreign := spliceInputs(t)
	for _, m := range []wire.Message{canonical, unframed, foreign} {
		b.Receive(transport.Inbound{From: wire.BrokerHop("up"), Msg: m})
	}
	for i, pub := range []wire.Message{canonical, unframed, foreign} {
		frame, err := readRawFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		m, err := wire.Decode(frame)
		if err != nil || m.Type != wire.TypeDeliver {
			t.Fatalf("frame %d: %v, %v", i, m.Type, err)
		}
		if !m.Deliver.Item.Notif.Equal(*pub.Notif) || m.Deliver.Item.Seq != uint64(i+1) {
			t.Errorf("frame %d delivers %v #%d, want %v #%d", i, m.Deliver.Item.Notif, m.Deliver.Item.Seq, *pub.Notif, i+1)
		}
		want, err := wire.Encode(wire.NewDeliver(*m.Deliver))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("frame %d on the wire %x, canonical encoding %x", i, frame, want)
		}
	}
}

func rawFrame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

func readRawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	buf := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	_, err := io.ReadFull(r, buf)
	return buf, err
}
