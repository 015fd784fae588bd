package transport

import (
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// sink records inbound messages.
type sink struct {
	mu  sync.Mutex
	got []Inbound
}

func (s *sink) Receive(in Inbound) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(s.got, in)
}

func (s *sink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func (s *sink) at(i int) Inbound {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.got[i]
}

func pubMsg(i int64) wire.Message {
	return wire.NewPublish(message.New(map[string]message.Value{
		"i": message.Int(i),
	}))
}

func msgIndex(in Inbound) int64 {
	v, _ := in.Msg.Notif.Get("i")
	return v.IntVal()
}

func TestPipeDeliversWithHopIdentity(t *testing.T) {
	var a, b sink
	la, lb := Pipe(wire.BrokerHop("A"), wire.BrokerHop("B"), &a, &b)
	if err := la.Send(pubMsg(1)); err != nil {
		t.Fatal(err)
	}
	if err := lb.Send(pubMsg(2)); err != nil {
		t.Fatal(err)
	}
	if b.len() != 1 || b.at(0).From.Broker != "A" {
		t.Errorf("B got %d messages, from %v", b.len(), b.at(0).From)
	}
	if a.len() != 1 || a.at(0).From.Broker != "B" {
		t.Errorf("A got %d messages", a.len())
	}
}

func TestPipeFIFOWithLatency(t *testing.T) {
	var b sink
	la, _ := Pipe(wire.BrokerHop("A"), wire.BrokerHop("B"), &sink{}, &b,
		WithLatency(5*time.Millisecond))
	const n = 50
	start := time.Now()
	for i := int64(0); i < n; i++ {
		if err := la.Send(pubMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for b.len() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.len() != n {
		t.Fatalf("received %d of %d", b.len(), n)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("latency not applied: %v", elapsed)
	}
	for i := 0; i < n; i++ {
		if got := msgIndex(b.at(i)); got != int64(i) {
			t.Fatalf("FIFO violated at %d: got %d", i, got)
		}
	}
	if err := la.Close(); err != nil {
		t.Fatal(err)
	}
	if err := la.Send(pubMsg(99)); err != ErrLinkClosed {
		t.Errorf("send after close = %v, want ErrLinkClosed", err)
	}
	if err := la.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestPipeAsymmetricLatency(t *testing.T) {
	var a, b sink
	la, lb := Pipe(wire.BrokerHop("A"), wire.BrokerHop("B"), &a, &b,
		WithAsymmetricLatency(0, 10*time.Millisecond))
	// A→B instant.
	if err := la.Send(pubMsg(1)); err != nil {
		t.Fatal(err)
	}
	if b.len() != 1 {
		t.Error("A->B should be synchronous at zero latency")
	}
	// B→A delayed.
	start := time.Now()
	if err := lb.Send(pubMsg(2)); err != nil {
		t.Fatal(err)
	}
	for a.len() < 1 && time.Since(start) < time.Second {
		time.Sleep(time.Millisecond)
	}
	if a.len() != 1 || time.Since(start) < 10*time.Millisecond {
		t.Errorf("B->A latency not applied (%v)", time.Since(start))
	}
	_ = la.Close()
	_ = lb.Close()
}

func TestPipeCounterCategorization(t *testing.T) {
	var cnt metrics.Counter
	var b sink
	la, _ := Pipe(wire.BrokerHop("A"), wire.BrokerHop("B"), &sink{}, &b, WithCounter(&cnt))
	msgs := []wire.Message{
		pubMsg(1),
		wire.NewSubscribe(wire.Subscription{}),
		wire.NewUnsubscribe(wire.Subscription{}),
		wire.NewAdvertise(wire.Subscription{}),
		wire.NewFetch(wire.Fetch{}),
		wire.NewReplay(wire.Replay{}),
		wire.NewLocUpdate(wire.LocUpdate{}),
		wire.NewDeliver(wire.Deliver{}),
	}
	for _, m := range msgs {
		if err := la.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := cnt.Get(metrics.CategoryNotification); got != 1 {
		t.Errorf("notifications = %d", got)
	}
	if got := cnt.Get(metrics.CategoryAdmin); got != 4 {
		t.Errorf("admin = %d", got)
	}
	if got := cnt.Get(metrics.CategoryControl); got != 2 {
		t.Errorf("control = %d", got)
	}
	if got := cnt.Get(metrics.CategoryDeliver); got != 1 {
		t.Errorf("deliver = %d", got)
	}
	if cnt.Total() != 8 {
		t.Errorf("total = %d", cnt.Total())
	}
}

// batchSink records inbound messages and how they were handed over.
type batchSink struct {
	sink
	bursts []int // size of each ReceiveBurst call
}

func (s *batchSink) ReceiveBurst(from wire.Hop, ms []wire.Message) {
	s.mu.Lock()
	s.bursts = append(s.bursts, len(ms))
	s.mu.Unlock()
	for _, m := range ms {
		s.Receive(Inbound{From: from, Msg: m})
	}
}

func TestChanLinkSendBatchFIFO(t *testing.T) {
	for _, latency := range []time.Duration{0, 2 * time.Millisecond} {
		var b batchSink
		la, _ := Pipe(wire.BrokerHop("A"), wire.BrokerHop("B"), &sink{}, &b,
			WithLatency(latency))
		// Interleave singles and bursts; order must hold across both.
		if err := la.Send(pubMsg(0)); err != nil {
			t.Fatal(err)
		}
		if err := la.SendBatch([]wire.Message{pubMsg(1), pubMsg(2), pubMsg(3)}); err != nil {
			t.Fatal(err)
		}
		if err := la.Send(pubMsg(4)); err != nil {
			t.Fatal(err)
		}
		if err := la.SendBatch(nil); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(3 * time.Second)
		for b.len() < 5 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if b.len() != 5 {
			t.Fatalf("latency=%v: received %d of 5", latency, b.len())
		}
		for i := 0; i < 5; i++ {
			if got := msgIndex(b.at(i)); got != int64(i) {
				t.Fatalf("latency=%v: FIFO violated at %d: got %d", latency, i, got)
			}
		}
		b.mu.Lock()
		bursts := append([]int(nil), b.bursts...)
		b.mu.Unlock()
		found := false
		for _, n := range bursts {
			if n == 3 {
				found = true
			}
		}
		if !found {
			t.Errorf("latency=%v: batch-aware receiver saw bursts %v, want one of size 3", latency, bursts)
		}
		_ = la.Close()
	}
}

// TestChanLinkCloseRace exercises the Send/Close race on a zero-latency
// link: once Close returns, no delivery may begin, and every Send either
// delivered before Close or reports ErrLinkClosed. Run with -race.
func TestChanLinkCloseRace(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		var mu sync.Mutex
		closed := false
		var lateDelivery bool
		recv := ReceiverFunc(func(Inbound) {
			mu.Lock()
			if closed {
				lateDelivery = true
			}
			mu.Unlock()
		})
		la, _ := Pipe(wire.BrokerHop("A"), wire.BrokerHop("B"), &sink{}, recv)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					if err := la.Send(pubMsg(int64(i))); err == ErrLinkClosed {
						return
					}
				}
			}()
		}
		close(start)
		// Two concurrent Closes: both must wait for in-flight deliveries.
		closeDone := make(chan struct{})
		go func() { _ = la.Close(); close(closeDone) }()
		_ = la.Close()
		<-closeDone
		// Close has returned: any delivery from now on is the seed's race.
		mu.Lock()
		closed = true
		mu.Unlock()
		wg.Wait()
		mu.Lock()
		late := lateDelivery
		mu.Unlock()
		if late {
			t.Fatal("delivery began after Close returned")
		}
	}
}

func TestReceiverFunc(t *testing.T) {
	called := false
	ReceiverFunc(func(Inbound) { called = true }).Receive(Inbound{})
	if !called {
		t.Error("ReceiverFunc did not dispatch")
	}
}

func TestTCPLinkRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var serverSink sink
	accepted := make(chan *TCPLink, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		l, err := AcceptTCP(conn, "server", &serverSink)
		if err != nil {
			return
		}
		accepted <- l
	}()

	var clientSink sink
	cl, err := DialTCP(ln.Addr().String(), "client", &clientSink)
	if err != nil {
		t.Fatal(err)
	}
	sv := <-accepted
	defer sv.Close()
	defer cl.Close()

	if cl.Peer().Broker != "server" || sv.Peer().Broker != "client" {
		t.Errorf("handshake identities: %v, %v", cl.Peer(), sv.Peer())
	}

	const n = 20
	for i := int64(0); i < n; i++ {
		if err := cl.Send(pubMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for serverSink.len() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if serverSink.len() != n {
		t.Fatalf("server got %d of %d", serverSink.len(), n)
	}
	for i := 0; i < n; i++ {
		in := serverSink.at(i)
		if in.From.Broker != "client" {
			t.Fatalf("wrong hop identity: %v", in.From)
		}
		if got := msgIndex(in); got != int64(i) {
			t.Fatalf("TCP FIFO violated at %d: got %d", i, got)
		}
	}

	// Reply direction.
	if err := sv.Send(pubMsg(100)); err != nil {
		t.Fatal(err)
	}
	for clientSink.len() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if clientSink.len() != 1 || msgIndex(clientSink.at(0)) != 100 {
		t.Error("reply not received")
	}
}

// TestTCPLinkSendBatch round-trips a burst through SendBatch, including a
// pre-encoded message (the encode-once fan-out path).
func TestTCPLinkSendBatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var serverSink sink
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = AcceptTCP(conn, "server", &serverSink)
	}()
	cl, err := DialTCP(ln.Addr().String(), "client", &sink{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 16
	ms := make([]wire.Message, n)
	for i := range ms {
		ms[i] = pubMsg(int64(i))
		if i%2 == 0 {
			if err := wire.Preencode(&ms[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cl.SendBatch(ms); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for serverSink.len() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if serverSink.len() != n {
		t.Fatalf("server got %d of %d", serverSink.len(), n)
	}
	for i := 0; i < n; i++ {
		if got := msgIndex(serverSink.at(i)); got != int64(i) {
			t.Fatalf("batch FIFO violated at %d: got %d", i, got)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPLinkSendThenCloseDurable: an accepted Send must reach the wire
// even when the sender Closes immediately afterwards — the pattern of a
// fire-and-forget producer (rebeca-client publishes then exits). Close
// drains the ring before tearing the socket down.
func TestTCPLinkSendThenCloseDurable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var serverSink sink
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = AcceptTCP(conn, "server", &serverSink)
	}()
	cl, err := DialTCP(ln.Addr().String(), "client", &sink{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if err := cl.Send(pubMsg(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for serverSink.len() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if serverSink.len() != n {
		t.Fatalf("server got %d of %d frames sent before Close", serverSink.len(), n)
	}
	for i := 0; i < n; i++ {
		if got := msgIndex(serverSink.at(i)); got != int64(i) {
			t.Fatalf("FIFO violated at %d: got %d", i, got)
		}
	}
}

func TestTCPLinkCloseUnblocksReader(t *testing.T) {
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
		_, _ = AcceptTCP(conn, "server", &sink{})
	}()
	cl, err := DialTCP(ln.Addr().String(), "client", &sink{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cl.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("reader did not exit after Close")
	}
	if err := cl.Send(pubMsg(1)); err != ErrLinkClosed {
		t.Errorf("send after close = %v", err)
	}
}

// TestTCPHandshakeDeadline: a peer that accepts the connection and never
// answers the handshake fails DialTCP once the handshake deadline
// (handshakeTimeout, shortened here) passes, instead of holding the dialer
// for ever. The listener never calls Accept; the kernel completes the
// connection on its own.
func TestTCPHandshakeDeadline(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const deadline = 50 * time.Millisecond
	start := time.Now()
	_, err = DialTCP(ln.Addr().String(), "client", &sink{}, func(c *tcpConfig) { c.handshake = deadline })
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("DialTCP to a silent peer = %v, want os.ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > deadline+time.Second {
		t.Errorf("DialTCP took %v, deadline %v", elapsed, deadline)
	}
}

// gatedSink blocks its first delivery until released, stalling the
// link's pump goroutine the way a slow consumer would.
type gatedSink struct {
	sink
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGatedSink() *gatedSink {
	return &gatedSink{started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedSink) Receive(in Inbound) {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
	g.sink.Receive(in)
}

func waitSinkLen(t *testing.T, s interface{ len() int }, n int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for s.len() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.len(); got != n {
		t.Fatalf("received %d messages, want %d", got, n)
	}
}

// TestPipeWindowShedNewest: with the consumer stalled, a full window
// refuses newcomers (tail drop) and the survivors arrive in FIFO order.
func TestPipeWindowShedNewest(t *testing.T) {
	b := newGatedSink()
	la, _ := Pipe(wire.BrokerHop("A"), wire.BrokerHop("B"), &sink{}, b,
		WithWindow(flow.Options{Capacity: 2, Policy: flow.ShedNewest}))
	defer la.Close()
	if err := la.Send(pubMsg(0)); err != nil {
		t.Fatal(err)
	}
	<-b.started // the pump is now stalled inside delivery of msg 0
	for i := int64(1); i <= 5; i++ {
		if err := la.Send(pubMsg(i)); err != nil {
			t.Fatalf("shed Send must still return nil, got %v", err)
		}
	}
	close(b.release)
	waitSinkLen(t, b, 3)
	for i, want := range []int64{0, 1, 2} {
		if got := msgIndex(b.at(i)); got != want {
			t.Errorf("message %d = %d, want %d", i, got, want)
		}
	}
	s := la.FlowStats()
	if s.ShedNewest != 3 || s.HighWater > 2 {
		t.Errorf("flow stats = %+v, want shedNewest=3 highWater<=2", s)
	}
}

// TestPipeWindowControlNeverShed: a control message (subscribe) crosses a
// full window that is shedding notifications.
func TestPipeWindowControlNeverShed(t *testing.T) {
	b := newGatedSink()
	la, _ := Pipe(wire.BrokerHop("A"), wire.BrokerHop("B"), &sink{}, b,
		WithWindow(flow.Options{Capacity: 1, Policy: flow.ShedNewest}))
	defer la.Close()
	if err := la.Send(pubMsg(0)); err != nil {
		t.Fatal(err)
	}
	<-b.started
	_ = la.Send(pubMsg(1)) // fills the window
	_ = la.Send(pubMsg(2)) // shed
	if err := la.Send(wire.NewSubscribe(wire.Subscription{Client: "c", ID: "s"})); err != nil {
		t.Fatal(err)
	}
	close(b.release)
	waitSinkLen(t, b, 3)
	if got := b.at(2).Msg.Type; got != wire.TypeSubscribe {
		t.Errorf("last message = %v, want subscribe", got)
	}
	if s := la.FlowStats(); s.ControlOverflow != 1 || s.ShedNewest != 1 {
		t.Errorf("flow stats = %+v, want controlOverflow=1 shedNewest=1", s)
	}
}

// TestPipeWindowBlockBackpressure: a Block window stalls the sender
// instead of dropping; everything arrives in order once the consumer
// resumes, and the stall is visible in the flow stats.
func TestPipeWindowBlockBackpressure(t *testing.T) {
	const total = 9
	b := newGatedSink()
	la, _ := Pipe(wire.BrokerHop("A"), wire.BrokerHop("B"), &sink{}, b,
		WithWindow(flow.Options{Capacity: 2, Policy: flow.Block}))
	defer la.Close()
	if err := la.Send(pubMsg(0)); err != nil {
		t.Fatal(err)
	}
	<-b.started
	go func() {
		for i := int64(1); i < total; i++ {
			if err := la.Send(pubMsg(i)); err != nil {
				return
			}
		}
	}()
	// Wait until the sender goroutine is provably stalled on credit.
	deadline := time.Now().Add(3 * time.Second)
	for la.FlowStats().CreditStalls == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if la.FlowStats().CreditStalls == 0 {
		t.Fatal("sender never stalled on a full Block window")
	}
	close(b.release)
	waitSinkLen(t, b, total)
	for i := 0; i < total; i++ {
		if got := msgIndex(b.at(i)); got != int64(i) {
			t.Fatalf("FIFO violated at %d: got %d", i, got)
		}
	}
	s := la.FlowStats()
	if s.HighWater > 2 || s.ShedNewest != 0 {
		t.Errorf("flow stats = %+v, want lossless with highWater<=2", s)
	}
}

// TestChanLinkFlowStatsWindowless: a plain pipe reports a zero snapshot.
func TestChanLinkFlowStatsWindowless(t *testing.T) {
	la, _ := Pipe(wire.BrokerHop("A"), wire.BrokerHop("B"), &sink{}, &sink{})
	defer la.Close()
	if s := la.FlowStats(); s != (flow.Stats{}) {
		t.Errorf("windowless link reports %+v", s)
	}
}

// TestTCPLinkFlushFailureMidBatch: the peer tears the connection down
// while the client is streaming batches; the writer's vectored write
// eventually fails, Flush surfaces the error, and the link stays
// poisoned for later Sends.
func TestTCPLinkFlushFailureMidBatch(t *testing.T) {
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
		// Hand-rolled handshake, then an immediate close: the client
		// sees an established link whose peer dies mid-stream.
		_, _ = readFrame(conn, maxFrameSize)
		_ = writeFrame(conn, []byte("server"))
		_ = conn.Close()
	}()
	cl, err := DialTCP(ln.Addr().String(), "client", &sink{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	big := wire.NewPublish(message.New(map[string]message.Value{
		"pad": message.String(strings.Repeat("x", 1<<16)),
	}))
	batch := []wire.Message{big, big, big, big, big, big, big, big}
	var failure error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := cl.SendBatch(batch); err != nil {
			failure = err
			break
		}
		if err := cl.Flush(); err != nil {
			failure = err
			break
		}
	}
	if failure == nil {
		t.Fatal("no write failure surfaced after the peer closed")
	}
	if failure == ErrLinkClosed {
		t.Fatalf("failure = ErrLinkClosed, want the underlying write error")
	}
	if err := cl.Send(pubMsg(1)); err == nil {
		t.Error("Send after a write failure should report the poisoned link")
	}
}

// TestTCPLinkCloseRacesSend mirrors the ChanLink close-race test for TCP:
// senders race Close; afterwards Sends must fail, and each sender's
// received messages must form a gapless FIFO prefix of what it sent
// (frames discarded at Close are a suffix of the ring).
func TestTCPLinkCloseRacesSend(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var serverSink sink
		serverUp := make(chan *TCPLink, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			l, err := AcceptTCP(conn, "server", &serverSink)
			if err != nil {
				return
			}
			serverUp <- l
		}()
		cl, err := DialTCP(ln.Addr().String(), "client", &sink{})
		if err != nil {
			t.Fatal(err)
		}
		sv := <-serverUp

		const senders = 3
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := int64(0); ; i++ {
					if err := cl.Send(pubMsg(int64(s)*1_000_000 + i)); err != nil {
						return
					}
				}
			}(s)
		}
		time.Sleep(time.Duration(trial) * 500 * time.Microsecond)
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cl.Send(pubMsg(0)); err == nil {
			t.Fatal("Send after Close returned nil")
		}
		wg.Wait()

		// Wait for the server to finish reading the torn stream.
		select {
		case <-sv.Done():
		case <-time.After(3 * time.Second):
			t.Fatal("server reader did not observe the close")
		}
		next := make([]int64, senders)
		for i := 0; i < serverSink.len(); i++ {
			v := msgIndex(serverSink.at(i))
			s, seq := v/1_000_000, v%1_000_000
			if seq != next[s] {
				t.Fatalf("trial %d: sender %d: received seq %d, want %d (reorder or gap)",
					trial, s, seq, next[s])
			}
			next[s]++
		}
		_ = sv.Close()
		_ = ln.Close()
		serverSink.mu.Lock()
		serverSink.got = nil
		serverSink.mu.Unlock()
	}
}

// TestTCPLinkSendWindowShed: with a peer that never reads, the socket and
// then the bounded ring fill up, and a ShedNewest ring starts refusing
// notifications instead of growing without limit. Close then gives up on
// the accepted frames once its drain bound (closeDrainTimeout, shortened
// here) passes: such a peer cannot wedge teardown.
func TestTCPLinkSendWindowShed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stopRead, peerClosed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(peerClosed)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = readFrame(conn, maxFrameSize)
		_ = writeFrame(conn, []byte("server"))
		<-stopRead // never read frames; keep the connection open
		_ = conn.Close()
	}()
	const drain = 50 * time.Millisecond
	cl, err := DialTCP(ln.Addr().String(), "client", &sink{},
		WithSendWindow(flow.Options{Capacity: 4, Policy: flow.ShedNewest}),
		func(c *tcpConfig) { c.drain = drain })
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(stopRead)
		<-peerClosed
	}()

	big := wire.NewPublish(message.New(map[string]message.Value{
		"pad": message.String(strings.Repeat("x", 1<<18)),
	}))
	deadline := time.Now().Add(10 * time.Second)
	for cl.FlowStats().ShedNewest == 0 && time.Now().Before(deadline) {
		if err := cl.Send(big); err != nil {
			t.Fatalf("Send failed before the ring shed: %v", err)
		}
	}
	s := cl.FlowStats()
	if s.ShedNewest == 0 {
		t.Fatal("ring never shed with an unread peer")
	}
	if s.HighWater > 4 {
		t.Errorf("ring high water %d exceeds capacity 4", s.HighWater)
	}
	start := time.Now()
	if err := cl.Close(); err != nil {
		t.Errorf("Close after the drain failed = %v, want nil (the write error is Flush's to report)", err)
	}
	if elapsed := time.Since(start); elapsed > drain+time.Second {
		t.Errorf("Close against a peer that never reads took %v, drain bound %v", elapsed, drain)
	}
}

// TestTCPLinkFlushAfterCleanClose: a Flush racing (or following) a clean
// Close must not report an error when every accepted frame made it to
// the wire — send/flush/close is a durable sequence.
func TestTCPLinkFlushAfterCleanClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var serverSink sink
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = AcceptTCP(conn, "server", &serverSink)
	}()
	cl, err := DialTCP(ln.Addr().String(), "client", &sink{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 32; i++ {
		if err := cl.Send(pubMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Errorf("Flush after clean Close = %v, want nil (all frames written)", err)
	}
	waitSinkLen(t, &serverSink, 32)
}

// TestTCPLinkDeliverLosslessBounded: Deliver frames on a broker→client
// link must not bypass the send window (the old control classification
// let a dead client grow the ring without bound) and must not be dropped
// (a gap would skip client sequence numbers): with a stalled peer and a
// ShedNewest ring, the sender stalls on credit, the ring depth stays at
// capacity, and after the peer resumes every delivery arrives in order.
// The link runs over net.Pipe, which buffers nothing, so the stalled peer
// blocks the writer at the first frame.
func TestTCPLinkDeliverLosslessBounded(t *testing.T) {
	near, far := net.Pipe()
	resume := make(chan struct{})
	seqs := make(chan uint64, 64)
	go func() {
		defer close(seqs)
		defer far.Close()
		_, _ = readFrame(far, maxFrameSize)
		_ = writeFrame(far, []byte("server"))
		<-resume
		for {
			frame, err := readFrame(far, maxFrameSize)
			if err != nil {
				return
			}
			m, err := wire.Decode(frame)
			if err != nil || m.Type != wire.TypeDeliver {
				continue
			}
			seqs <- m.Deliver.Item.Seq
		}
	}()
	const capacity, total = 2, 16
	cl, err := AcceptTCP(near, "client", &sink{},
		WithSendWindow(flow.Options{Capacity: capacity, Policy: flow.ShedNewest}))
	if err != nil {
		t.Fatal(err)
	}

	pad := message.New(map[string]message.Value{
		"pad": message.String(strings.Repeat("x", 1<<10)),
	})
	sendDone := make(chan error, 1)
	go func() {
		for i := uint64(1); i <= total; i++ {
			d := wire.NewDeliver(wire.Deliver{
				Client: "c", ID: "s",
				Item: wire.SeqNotification{Seq: i, Notif: pad},
			})
			if err := cl.Send(d); err != nil {
				sendDone <- err
				return
			}
		}
		sendDone <- nil
	}()

	// The sender must stall on ring credit, not sail through an exempt
	// control class.
	deadline := time.Now().Add(10 * time.Second)
	for cl.FlowStats().CreditStalls == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s := cl.FlowStats()
	if s.CreditStalls == 0 {
		t.Fatal("Deliver sender never stalled: deliveries bypassed the send window")
	}
	if s.ControlOverflow != 0 {
		t.Errorf("deliveries admitted over capacity as control: %+v", s)
	}
	if s.HighWater > capacity {
		t.Errorf("ring high water %d exceeds capacity %d", s.HighWater, capacity)
	}

	close(resume)
	if err := <-sendDone; err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for seq := range seqs {
		got = append(got, seq)
	}
	if len(got) != total {
		t.Fatalf("peer received %d deliveries, want %d (lossless class must not drop)", len(got), total)
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d, want %d (sequence gap)", i, seq, i+1)
		}
	}
	if s := cl.FlowStats(); s.ShedNewest != 0 {
		t.Errorf("deliveries were dropped: %+v", s)
	}
}

// TestChanLinkWaitIdleExact: WaitIdle must not return while a message
// accepted before the call is still undelivered — even when the window
// sheds around it — and must return once everything pre-call has been
// delivered.
func TestChanLinkWaitIdleExact(t *testing.T) {
	b := newGatedSink()
	la, _ := Pipe(wire.BrokerHop("A"), wire.BrokerHop("B"), &sink{}, b,
		WithWindow(flow.Options{Capacity: 2, Policy: flow.ShedNewest}))
	if err := la.Send(pubMsg(0)); err != nil {
		t.Fatal(err)
	}
	<-b.started // pump stalled inside delivery of msg 0
	for i := int64(1); i <= 5; i++ {
		if err := la.Send(pubMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	idle := make(chan struct{})
	go func() { la.WaitIdle(); close(idle) }()
	select {
	case <-idle:
		t.Fatal("WaitIdle returned while accepted messages were undelivered")
	case <-time.After(50 * time.Millisecond):
	}
	close(b.release)
	select {
	case <-idle:
	case <-time.After(3 * time.Second):
		t.Fatal("WaitIdle did not return after the pump drained")
	}
	// Everything accepted before WaitIdle is now delivered: {0, 1, 2};
	// {3, 4, 5} were shed at the full window.
	if got := b.len(); got != 3 {
		t.Fatalf("delivered %d messages, want 3", got)
	}
	for i, want := range []int64{0, 1, 2} {
		if got := msgIndex(b.at(i)); got != want {
			t.Errorf("message %d = %d, want %d", i, got, want)
		}
	}
	if s := la.FlowStats(); s.ShedNewest != 3 {
		t.Errorf("flow stats = %+v, want shedNewest=3", s)
	}
	if err := la.Close(); err != nil {
		t.Fatal(err)
	}
	la.WaitIdle() // closed pump: must return, not hang
}

// TestTCPLinkConcurrentFlushClose pins the usage pattern of a broker
// daemon: Send/SendBatch/Flush arrive from the broker's run loop while
// other goroutines Flush and a third Closes the link, as the daemon does
// when it drops a dead peer. Run under
// -race, the test asserts the link's mutex/cond flush accounting is safe
// for concurrent use and that nobody wedges — every Flush returns (nil or
// the close-time write error) and Close tears the link down while flushes
// are in flight.
func TestTCPLinkConcurrentFlushClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var serverSink sink
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = AcceptTCP(conn, "server", &serverSink)
	}()
	cl, err := DialTCP(ln.Addr().String(), "client", &sink{})
	if err != nil {
		t.Fatal(err)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	// Writer: the run-loop role — batches followed by a Flush.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		batch := []wire.Message{pubMsg(1), pubMsg(2), pubMsg(3)}
		for i := 0; i < 500; i++ {
			if err := cl.SendBatch(batch); err != nil {
				return // closed under us: expected
			}
			_ = cl.Flush()
		}
	}()
	// Two competing flushers (a Barrier-style waiter and a stats poller).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 500; i++ {
				_ = cl.Flush()
				_ = cl.FlowStats()
			}
		}()
	}
	// Closer: tear the link down mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(2 * time.Millisecond)
		_ = cl.Close()
	}()

	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent Flush/Close wedged")
	}
	// The link must be fully closed and further sends must fail.
	if err := cl.Send(pubMsg(99)); err == nil {
		t.Error("Send after Close succeeded")
	}
}
