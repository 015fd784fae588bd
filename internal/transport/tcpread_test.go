package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/wire"
)

// tcpPair connects a client link to a server link whose inbound messages
// go to serverRecv; both are closed when the test ends.
func tcpPair(t *testing.T, serverRecv Receiver) (client, server *TCPLink) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *TCPLink, 1)
	go func() {
		defer close(accepted)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if l, err := AcceptTCP(conn, "server", serverRecv); err == nil {
			accepted <- l
		}
	}()
	client, err = DialTCP(ln.Addr().String(), "client", &sink{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	server, ok := <-accepted
	if !ok {
		t.Fatal("server side of the handshake failed")
	}
	t.Cleanup(func() { _ = server.Close() })
	return client, server
}

// appendFrame appends m as one length-prefixed frame.
func appendFrame(t testing.TB, stream []byte, m wire.Message) []byte {
	t.Helper()
	payload, err := wire.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	stream = binary.BigEndian.AppendUint32(stream, uint32(len(payload)))
	return append(stream, payload...)
}

// padPublish is a publish whose frame is exactly size bytes, header
// included (size must leave room for the encoding's fixed part).
func padPublish(t *testing.T, size int) wire.Message {
	t.Helper()
	pad := func(n int) wire.Message {
		return wire.NewPublish(message.New(map[string]message.Value{
			"pad": message.String(strings.Repeat("p", n)),
		}))
	}
	// The pad's length prefix is a varint, so the frame grows by the pad
	// plus at most a few bytes of prefix.
	base := len(appendFrame(t, nil, pad(0)))
	for n := size - base; n >= 0 && n >= size-base-4; n-- {
		if len(appendFrame(t, nil, pad(n))) == size {
			return pad(n)
		}
	}
	t.Fatalf("no pad publish of %d bytes", size)
	return wire.Message{}
}

// scribbler is a BatchReceiver that keeps copies of the messages and then
// overwrites the burst slice, which the BatchReceiver contract allows.
type scribbler struct {
	mu     sync.Mutex
	got    []wire.Message
	bursts []int
}

func (s *scribbler) Receive(in Inbound) { s.ReceiveBurst(in.From, []wire.Message{in.Msg}) }

func (s *scribbler) ReceiveBurst(_ wire.Hop, ms []wire.Message) {
	s.mu.Lock()
	s.got = append(s.got, ms...)
	s.bursts = append(s.bursts, len(ms))
	s.mu.Unlock()
	for i := range ms {
		ms[i] = wire.Message{Type: wire.TypeDeliver}
	}
}

func (s *scribbler) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func (s *scribbler) snapshot() ([]wire.Message, []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]wire.Message(nil), s.got...), append([]int(nil), s.bursts...)
}

// checkIndexes fails unless ms are publishes numbered 0..len(ms)-1 in order.
func checkIndexes(t *testing.T, ms []wire.Message) {
	t.Helper()
	for i, m := range ms {
		if m.Type != wire.TypePublish || m.Notif == nil {
			t.Fatalf("message %d is %v, want a publish", i, m.Type)
		}
		if got := msgIndex(Inbound{Msg: m}); got != int64(i) {
			t.Fatalf("message %d carries index %d (reorder, loss or corruption)", i, got)
		}
	}
}

// checkBursts fails unless every burst is non-empty and within the cap.
func checkBursts(t *testing.T, bursts []int) {
	t.Helper()
	for _, n := range bursts {
		if n < 1 || n > maxReadBurst {
			t.Fatalf("burst sizes %v: want each in [1, %d]", bursts, maxReadBurst)
		}
	}
}

// TestTCPLinkSendBatchArrivesInBursts: frames written together are read
// together — a batch-aware receiver sees fewer handoffs than frames, in
// FIFO order, and no burst exceeds the cap.
func TestTCPLinkSendBatchArrivesInBursts(t *testing.T) {
	const n = 512
	var recv scribbler
	cl, _ := tcpPair(t, &recv)
	ms := make([]wire.Message, n)
	for i := range ms {
		ms[i] = pubMsg(int64(i))
	}
	if err := cl.SendBatch(ms); err != nil {
		t.Fatal(err)
	}
	waitSinkLen(t, &recv, n)
	got, bursts := recv.snapshot()
	checkIndexes(t, got)
	checkBursts(t, bursts)
	if len(bursts) >= n {
		t.Errorf("%d frames arrived in %d bursts, want fewer bursts than frames", n, len(bursts))
	}
}

// TestReadFramesReceiverMayOverwriteBurst: the receiver scribbles over
// each burst slice after taking its messages; later bursts, which reuse
// the reader's slice, must still carry their own messages, in order, in
// bursts no larger than the cap.
func TestReadFramesReceiverMayOverwriteBurst(t *testing.T) {
	const n = 3*maxReadBurst + 7
	var stream []byte
	for i := 0; i < n; i++ {
		stream = appendFrame(t, stream, pubMsg(int64(i)))
	}
	var recv scribbler
	if err := readFrames(bytes.NewReader(stream), wire.BrokerHop("p"), &recv); err != io.EOF {
		t.Fatalf("readFrames = %v, want io.EOF at the end of the stream", err)
	}
	got, bursts := recv.snapshot()
	checkIndexes(t, got)
	checkBursts(t, bursts)
	if len(got) != n {
		t.Fatalf("received %d of %d", len(got), n)
	}
}

// TestReadFramesStraddlingBufferBoundary: a frame whose header or payload
// crosses the end of the read buffer arrives intact, whatever the offset.
func TestReadFramesStraddlingBufferBoundary(t *testing.T) {
	for _, start := range []int{readBufferSize - 300, readBufferSize - 6, readBufferSize - 4, readBufferSize - 2, readBufferSize - 1, readBufferSize} {
		stream := appendFrame(t, nil, padPublish(t, start))
		stream = appendFrame(t, stream, pubMsg(1))
		stream = appendFrame(t, stream, pubMsg(2))
		var recv scribbler
		_ = readFrames(bytes.NewReader(stream), wire.BrokerHop("p"), &recv)
		got, _ := recv.snapshot()
		if len(got) != 3 {
			t.Fatalf("frame at %d: received %d of 3", start, len(got))
		}
		for i, want := range []int64{1, 2} {
			if idx := msgIndex(Inbound{Msg: got[i+1]}); idx != want {
				t.Fatalf("frame at %d: message %d carries %d, want %d", start, i+1, idx, want)
			}
		}
	}
}

// TestReadFramesFlushesBeforeBlocking: a decoded frame is handed to the
// receiver before the reader blocks for the rest of the next one — here
// the stream stalls one byte into the second frame's header.
func TestReadFramesFlushesBeforeBlocking(t *testing.T) {
	pr, pw := io.Pipe()
	var recv scribbler
	done := make(chan error, 1)
	go func() { done <- readFrames(pr, wire.BrokerHop("p"), &recv) }()
	second := appendFrame(t, nil, pubMsg(1))
	if _, err := pw.Write(append(appendFrame(t, nil, pubMsg(0)), second[0])); err != nil {
		t.Fatal(err)
	}
	waitSinkLen(t, &recv, 1)
	if _, err := pw.Write(second[1:]); err != nil {
		t.Fatal(err)
	}
	waitSinkLen(t, &recv, 2)
	_ = pw.Close()
	if err := <-done; err != io.EOF {
		t.Errorf("readFrames = %v, want io.EOF", err)
	}
	got, _ := recv.snapshot()
	checkIndexes(t, got)
}

// TestTCPLinkFrameLargerThanBuffer: a 1 MiB frame, which cannot fit the
// read buffer, arrives intact between two small ones.
func TestTCPLinkFrameLargerThanBuffer(t *testing.T) {
	var recv scribbler
	cl, _ := tcpPair(t, &recv)
	pad := strings.Repeat("x", 1<<20)
	big := wire.NewPublish(message.New(map[string]message.Value{
		"i":   message.Int(1),
		"pad": message.String(pad),
	}))
	if err := cl.SendBatch([]wire.Message{pubMsg(0), big, pubMsg(2)}); err != nil {
		t.Fatal(err)
	}
	waitSinkLen(t, &recv, 3)
	got, _ := recv.snapshot()
	checkIndexes(t, got)
	if v, _ := got[1].Notif.Get("pad"); v.Str() != pad {
		t.Fatalf("1 MiB payload corrupted (%d bytes arrived)", len(v.Str()))
	}
}

// TestReadFramesSkipsMalformedMidBurst: a frame that does not decode is
// dropped on its own; the frames around it arrive, in order, in one burst.
func TestReadFramesSkipsMalformedMidBurst(t *testing.T) {
	stream := appendFrame(t, nil, pubMsg(0))
	stream = append(stream, 0, 0, 0, 3, 0xff, 0xff, 0xff) // unknown codec version
	stream = appendFrame(t, stream, pubMsg(1))
	var recv scribbler
	_ = readFrames(bytes.NewReader(stream), wire.BrokerHop("p"), &recv)
	got, bursts := recv.snapshot()
	checkIndexes(t, got)
	if len(got) != 2 || len(bursts) != 1 {
		t.Fatalf("received %d messages in bursts %v, want both neighbours in one burst", len(got), bursts)
	}
}

// TestTCPLinkReceiverFuncSeesEveryFrame: a receiver that is not
// batch-aware gets one Receive per frame, in order, tagged with the peer.
func TestTCPLinkReceiverFuncSeesEveryFrame(t *testing.T) {
	const n = 2*maxReadBurst + 3
	var mu sync.Mutex
	var got []Inbound
	count := func() int { mu.Lock(); defer mu.Unlock(); return len(got) }
	cl, _ := tcpPair(t, ReceiverFunc(func(in Inbound) {
		mu.Lock()
		got = append(got, in)
		mu.Unlock()
	}))
	ms := make([]wire.Message, n)
	for i := range ms {
		ms[i] = pubMsg(int64(i))
	}
	if err := cl.SendBatch(ms); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for count() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("received %d of %d", len(got), n)
	}
	for i, in := range got {
		if in.From.Broker != "client" {
			t.Fatalf("message %d from %v", i, in.From)
		}
		if idx := msgIndex(in); idx != int64(i) {
			t.Fatalf("message %d carries %d", i, idx)
		}
	}
}

// TestReadFramesPassThroughFrameSurvivesRefill: a decoded publish keeps
// its inbound bytes as Message.Frame for verbatim forwarding; those bytes
// must be the message's own, not a window into the read buffer that the
// next read overwrites.
func TestReadFramesPassThroughFrameSurvivesRefill(t *testing.T) {
	var stream []byte
	var want [][]byte
	for i := 0; len(stream) < 3*readBufferSize; i++ {
		m := wire.NewPublish(message.New(map[string]message.Value{
			"i":   message.Int(int64(i)),
			"pad": message.String(strings.Repeat(string(rune('a'+i%26)), 100+i%200)),
		}))
		payload, err := wire.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, payload)
		stream = appendFrame(t, stream, m)
	}
	var recv scribbler
	_ = readFrames(&chunkReader{data: stream, sizes: []byte{200, 13, 255, 1}}, wire.BrokerHop("p"), &recv)
	got, _ := recv.snapshot()
	if len(got) != len(want) {
		t.Fatalf("received %d of %d", len(got), len(want))
	}
	for i, m := range got {
		if m.Frame == nil {
			t.Fatalf("message %d: canonical publish lost its pass-through frame", i)
		}
		if !bytes.Equal(m.Frame, want[i]) {
			t.Fatalf("message %d: pass-through frame changed after the reader refilled its buffer", i)
		}
	}
}

// handshakeAgainst runs the accepting side of a handshake against a peer
// that announces itself with the raw bytes hello.
func handshakeAgainst(t *testing.T, hello []byte) error {
	t.Helper()
	local, remote := net.Pipe()
	go func() {
		defer remote.Close()
		_, _ = readFrame(remote, maxIdentitySize)
		_, _ = remote.Write(hello)
	}()
	l, err := AcceptTCP(local, "server", &sink{})
	if err == nil {
		_ = l.Close()
	}
	return err
}

// TestHandshakeRefusesOversizedIdentity: the identity frame arrives before
// the peer is known, so a peer announcing a 16 MiB identity is refused
// without the link allocating anything like it.
func TestHandshakeRefusesOversizedIdentity(t *testing.T) {
	hello := binary.BigEndian.AppendUint32(nil, maxFrameSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := handshakeAgainst(t, hello)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 16 MiB identity was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing the identity allocated %d bytes", grew)
	}
	if err := handshakeAgainst(t, appendIdentity(strings.Repeat("b", maxIdentitySize+1))); err == nil {
		t.Error("an identity over the cap was accepted")
	}
	if err := handshakeAgainst(t, appendIdentity(strings.Repeat("b", maxIdentitySize))); err != nil {
		t.Errorf("an identity at the cap was refused: %v", err)
	}
}

// TestHandshakeRefusesEmptyIdentity: neither a broker nor a client may
// join without a name.
func TestHandshakeRefusesEmptyIdentity(t *testing.T) {
	for _, id := range []string{"", clientHandshakePrefix} {
		if err := handshakeAgainst(t, appendIdentity(id)); err == nil {
			t.Errorf("identity %q was accepted", id)
		}
	}
}

func appendIdentity(id string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(id))), id...)
}

// chunkReader hands out data in reads of varying size: the i-th read
// returns at most sizes[i mod len]² + 1 bytes, so one byte of fuzz input
// spans single-byte reads up to most of the read buffer.
type chunkReader struct {
	data  []byte
	sizes []byte
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(c.data))
	if len(c.sizes) > 0 {
		s := int(c.sizes[c.i%len(c.sizes)])
		c.i++
		n = min(n, s*s+1)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// referenceFrames decodes stream frame by frame with exact reads: what
// readFrames must deliver, whatever the read sizes.
func referenceFrames(stream []byte) []wire.Message {
	var out []wire.Message
	r := bytes.NewReader(stream)
	for {
		frame, err := readFrame(r, maxFrameSize)
		if err != nil {
			return out
		}
		if m, err := wire.Decode(frame); err == nil {
			out = append(out, m)
		}
	}
}

// FuzzTCPFrameReader runs the burst reader over arbitrary byte streams cut
// into arbitrary read sizes: it must not panic, and it must deliver exactly
// the messages the frame-by-frame reference decodes, in order, each with
// the same pass-through frame, in bursts within the cap — while the
// receiver overwrites every burst it is handed.
func FuzzTCPFrameReader(f *testing.F) {
	var stream []byte
	for _, m := range []wire.Message{
		pubMsg(1),
		wire.NewSubscribe(wire.Subscription{Client: "c", ID: "s"}),
		wire.NewDeliver(wire.Deliver{Client: "c", ID: "s", Item: wire.SeqNotification{Seq: 3, Notif: *pubMsg(3).Notif}}),
		pubMsg(2),
	} {
		stream = appendFrame(f, stream, m)
	}
	f.Add(stream, []byte{255})
	f.Add(stream, []byte{0, 3, 1, 7})
	f.Add(append(stream[:9:9], stream...), []byte{2})
	f.Fuzz(func(t *testing.T, stream, sizes []byte) {
		want := referenceFrames(stream)
		var recv scribbler
		_ = readFrames(&chunkReader{data: stream, sizes: sizes}, wire.BrokerHop("p"), &recv)
		got, bursts := recv.snapshot()
		checkBursts(t, bursts)
		if len(got) != len(want) {
			t.Fatalf("reader delivered %d messages, reference decodes %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].Frame, want[i].Frame) || (got[i].Frame == nil) != (want[i].Frame == nil) {
				t.Fatalf("message %d: pass-through frame differs", i)
			}
			g, w := got[i], want[i]
			g.Frame, w.Frame = nil, nil
			ge, gerr := wire.Encode(g)
			we, werr := wire.Encode(w)
			if gerr != nil || werr != nil || !bytes.Equal(ge, we) {
				t.Fatalf("message %d differs from the reference (%v, %v)", i, gerr, werr)
			}
		}
	})
}
