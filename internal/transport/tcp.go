package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/flow"
	"repro/internal/wire"
)

// TCPLink is a link endpoint over a TCP connection. Frames are
// length-prefixed (4-byte big-endian) wire-codec messages. A handshake
// exchanges broker identities so each side knows which Hop its inbound
// messages belong to.
//
// Sends do not write the socket directly: they encode (or reuse a cached
// frame) and enqueue onto a bounded frame ring — a flow.Queue — drained
// by a writer goroutine that flushes each drained batch with one vectored
// write (writev), so a burst of N frames costs one syscall and a slow
// socket never stalls the sender's run loop until the ring's policy says
// so. The default ring Blocks at DefaultSendWindow frames,
// preserving the old blocking-write backpressure while decoupling
// syscalls from Send; WithSendWindow overrides capacity and policy.
// Frames are admitted by wire.Type.FlowClass: publishes take the full
// policy, deliveries are lossless (never dropped — that would skip
// client sequence numbers — but they fill the ring and stall the sender
// when it is full, so a stalled client pins at most a ring's worth of
// frames), and control frames bypass the policy entirely, so routing
// and relocation traffic is never shed by an overloaded ring.
//
// The receive side is batched the same way: the reader goroutine reads
// the socket through a readBufferSize buffer, so one read syscall picks
// up every frame the kernel already holds, decodes each frame that is
// complete in the buffer, and hands them to a BatchReceiver as one
// ReceiveBurst (a broker's mailbox takes its lock once per burst). A
// burst is handed off as soon as the next frame is not fully buffered, so
// no decoded frame waits behind a read that could block. Receivers that
// are not batch-aware get one Receive per frame, in order.
//
// Both hot socket calls — the reader's read and the writer's writev — go
// through socketIO: on Linux a raw non-blocking syscall that keeps the Go
// runtime's sysmon thread asleep (sockio_linux.go says why), elsewhere
// conn.Read and net.Buffers.WriteTo. The handshake uses the plain conn.
type TCPLink struct {
	conn    net.Conn
	sock    socketIO
	peerHop wire.Hop
	ring    *flow.Queue[tcpFrame]

	mu        sync.Mutex
	flushCond *sync.Cond // pending reaching 0, or a write error, or close
	pending   int        // frames accepted but not yet written (or discarded)
	werr      error      // first write error; poisons subsequent Sends
	closed    bool

	drain time.Duration // Close's bound on draining accepted frames

	writerDone chan struct{}
	done       chan struct{}
}

var _ Link = (*TCPLink)(nil)
var _ BatchSender = (*TCPLink)(nil)
var _ Flusher = (*TCPLink)(nil)
var _ FrameEncoder = (*TCPLink)(nil)
var _ flow.Reporter = (*TCPLink)(nil)

// tcpFrame is one queued wire frame: the length prefix, the payload, and
// the pooled encode buffer to return once the frame is written (nil for
// cached frames, which are shared and immutable).
type tcpFrame struct {
	hdr     [4]byte
	payload []byte
	pooled  *[]byte
	cls     flow.Class // admission class of the message type
}

func frameClass(f tcpFrame) flow.Class { return f.cls }

const maxFrameSize = 16 << 20 // 16 MiB; far above any legitimate message

// maxIdentitySize caps the handshake's identity frame: it arrives before
// the peer is known, so it must not be able to make the link allocate a
// full maxFrameSize buffer.
const maxIdentitySize = 1 << 10

// readBufferSize is the reader's socket buffer: one read picks up every
// frame the kernel holds, up to this many bytes. Frames larger than it
// are read into a buffer of their own.
const readBufferSize = 64 << 10

// maxReadBurst caps how many decoded frames one burst hands the receiver,
// so a deep socket backlog reaches the mailbox in bounded slices.
const maxReadBurst = 256

// handshakeTimeout bounds the identity exchange, so a peer that connects
// and then says nothing cannot hold a dialer or an accepting daemon.
const handshakeTimeout = 5 * time.Second

// DefaultSendWindow is the default frame-ring capacity: deep enough that
// batched fan-outs never stall on a healthy socket, small enough that a
// dead peer pins a bounded number of frames.
const DefaultSendWindow = 1024

// clientHandshakePrefix marks a handshake identity as a client rather
// than a broker, so the accepting side attaches the peer as a client.
const clientHandshakePrefix = "client/"

// TCPOption configures a TCPLink.
type TCPOption func(*tcpConfig)

type tcpConfig struct {
	ring flow.Options
	// handshake and drain are handshakeTimeout and closeDrainTimeout; a
	// test shortens them with a TCPOption of its own.
	handshake, drain time.Duration
}

// WithSendWindow overrides the frame ring's capacity and overload policy
// (Capacity 0 = unbounded). The default is {Capacity: DefaultSendWindow,
// Policy: Block}.
func WithSendWindow(o flow.Options) TCPOption {
	return func(c *tcpConfig) {
		c.ring = o
	}
}

// DialTCP connects to a peer broker, performs the identity handshake, and
// starts a reader goroutine delivering inbound messages to recv tagged
// with the peer's identity.
func DialTCP(addr string, self wire.BrokerID, recv Receiver, opts ...TCPOption) (*TCPLink, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPLink(conn, string(self), recv, opts)
}

// DialTCPClient connects a *client* to a broker over TCP: the handshake
// identifies the peer as a client so the broker attaches it instead of
// linking it into the overlay.
func DialTCPClient(addr string, self wire.ClientID, recv Receiver, opts ...TCPOption) (*TCPLink, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPLink(conn, clientHandshakePrefix+string(self), recv, opts)
}

// AcceptTCP wraps an accepted connection, performs the handshake, and
// starts the reader goroutine. Use Peer().IsClient() to tell whether the
// remote end is a client or a broker.
func AcceptTCP(conn net.Conn, self wire.BrokerID, recv Receiver, opts ...TCPOption) (*TCPLink, error) {
	return newTCPLink(conn, string(self), recv, opts)
}

func newTCPLink(conn net.Conn, self string, recv Receiver, opts []TCPOption) (*TCPLink, error) {
	cfg := tcpConfig{
		ring:      flow.Options{Capacity: DefaultSendWindow, Policy: flow.Block},
		handshake: handshakeTimeout,
		drain:     closeDrainTimeout,
	}
	for _, o := range opts {
		o(&cfg)
	}
	// A conn without deadlines (none in this repository) keeps an
	// unbounded handshake; nothing else changes for it.
	_ = conn.SetDeadline(time.Now().Add(cfg.handshake))
	if err := writeFrame(conn, []byte(self)); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: handshake send: %w", err)
	}
	// The identity is read with exact reads on the conn: every byte after
	// it belongs to the reader's buffer.
	peerID, err := readFrame(conn, maxIdentitySize)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: handshake recv: %w", err)
	}
	hop := wire.BrokerHop(wire.BrokerID(peerID))
	if rest, ok := strings.CutPrefix(string(peerID), clientHandshakePrefix); ok {
		hop = wire.ClientHop(wire.ClientID(rest))
	}
	if hop.IsZero() {
		_ = conn.Close()
		return nil, errors.New("transport: handshake recv: empty peer identity")
	}
	// Clearing fails only on a closed conn, which the reader reports.
	_ = conn.SetDeadline(time.Time{})
	l := &TCPLink{
		conn:       conn,
		sock:       newSocketIO(conn),
		peerHop:    hop,
		ring:       flow.NewQueue[tcpFrame](cfg.ring, frameClass),
		drain:      cfg.drain,
		writerDone: make(chan struct{}),
		done:       make(chan struct{}),
	}
	l.flushCond = sync.NewCond(&l.mu)
	go l.writeLoop()
	go l.readLoop(recv)
	return l, nil
}

// Peer returns the remote broker's identity as learned in the handshake.
func (l *TCPLink) Peer() wire.Hop { return l.peerHop }

// Send implements Link: encode (or reuse the cached frame) and enqueue
// for the writer goroutine. A full Block ring stalls here — the old
// blocking-write backpressure, now at the ring instead of the socket.
func (l *TCPLink) Send(m wire.Message) error {
	return l.enqueue(m)
}

// SendBatch implements BatchSender. Frames are enqueued one by one — the
// writer drains whatever has accumulated into a single vectored write, so
// batching happens at the syscall boundary regardless. FIFO holds per
// sending goroutine; concurrent senders' bursts may interleave, as their
// Sends always could.
func (l *TCPLink) SendBatch(ms []wire.Message) error {
	for i := range ms {
		if err := l.enqueue(ms[i]); err != nil {
			return err
		}
	}
	return nil
}

func (l *TCPLink) enqueue(m wire.Message) error {
	l.mu.Lock()
	if l.closed || l.werr != nil {
		err := l.werr
		l.mu.Unlock()
		if err == nil {
			err = ErrLinkClosed
		}
		return err
	}
	// Reserve the flush slot before pushing so a concurrent Flush cannot
	// observe pending == 0 between our push and its accounting.
	l.pending++
	l.mu.Unlock()

	fr := tcpFrame{cls: m.Type.FlowClass()}
	fr.payload = m.Frame
	if fr.payload == nil {
		buf := wire.GetEncodeBuf()
		f, err := wire.AppendEncode((*buf)[:0], m)
		if err != nil {
			wire.PutEncodeBuf(buf)
			l.unreserve()
			return fmt.Errorf("transport: encode: %w", err)
		}
		*buf = f
		fr.payload = f
		fr.pooled = buf
	}
	binary.BigEndian.PutUint32(fr.hdr[:], uint32(len(fr.payload)))

	switch err := l.ring.Push(fr); err {
	case nil:
		return nil
	case flow.ErrShed:
		// The ring's policy consumed the frame; the Send succeeded and
		// the drop is accounted in FlowStats.
		if fr.pooled != nil {
			wire.PutEncodeBuf(fr.pooled)
		}
		l.unreserve()
		return nil
	default: // flow.ErrClosed
		if fr.pooled != nil {
			wire.PutEncodeBuf(fr.pooled)
		}
		l.unreserve()
		l.mu.Lock()
		werr := l.werr
		l.mu.Unlock()
		if werr != nil {
			return werr
		}
		return ErrLinkClosed
	}
}

// unreserve gives back a flush slot for a frame that never reached the
// ring (encode failure, shed, closed ring).
func (l *TCPLink) unreserve() {
	l.mu.Lock()
	l.pending--
	if l.pending == 0 {
		l.flushCond.Broadcast()
	}
	l.mu.Unlock()
}

// Flush implements Flusher: it blocks until every frame accepted before
// the call is on the wire (or consumed by the ring's policy), returning
// the write error that stopped the writer, if any. A clean Close does
// not fail a Flush: Close drains the accepted frames (deadline-bounded),
// so the wait resolves to nil once they are written, or to the write
// error that discarded them. Safe for concurrent use — the broker's run
// loop calls Send/SendBatch/Flush while Close can arrive from the owner
// (the daemon dropping a dead peer) at any time (pinned by
// TestTCPLinkConcurrentFlushClose).
func (l *TCPLink) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.pending > 0 && l.werr == nil {
		l.flushCond.Wait()
	}
	if l.werr != nil {
		return l.werr
	}
	return nil
}

// FlowStats implements flow.Reporter: the frame ring's counters, for
// slow-consumer detection (a peer that stops reading shows up as ring
// depth, credit stalls, or drops here).
func (l *TCPLink) FlowStats() flow.Stats { return l.ring.Stats() }

// EncodesFrames implements FrameEncoder: senders that pre-encode fan-out
// messages (wire.Preencode) save this link a per-hop serialization.
func (l *TCPLink) EncodesFrames() {}

// writeLoop drains the frame ring and writes each drained batch with one
// vectored write: N frames become one writev of 2N iovecs (split at the
// kernel's IOV_MAX) instead of N buffered writes plus a flush. Pooled
// encode buffers are returned after the write; a write error poisons the
// link (subsequent Sends fail) and the rest of the ring is discarded.
func (l *TCPLink) writeLoop() {
	defer close(l.writerDone)
	var scratch net.Buffers
	for {
		batch, ok := l.ring.PopBatch()
		if !ok {
			return
		}
		bufs := scratch[:0]
		for i := range batch {
			bufs = append(bufs, batch[i].hdr[:], batch[i].payload)
		}
		scratch = bufs // keep the backing array for the next batch
		err := l.sock.writeBuffers(bufs)
		l.releaseBatch(batch, err)
		if err != nil {
			// The stream may be torn mid-frame; no point keeping the
			// connection half-alive. Closing it unblocks the reader and
			// makes the failure visible to the peer.
			_ = l.conn.Close()
			l.ring.Close()
			l.discardRing()
			return
		}
	}
}

// releaseBatch returns pooled buffers, recycles the ring array, credits
// the flush accounting, and records the first write error.
func (l *TCPLink) releaseBatch(batch []tcpFrame, err error) {
	for i := range batch {
		if batch[i].pooled != nil {
			wire.PutEncodeBuf(batch[i].pooled)
		}
	}
	n := len(batch)
	l.ring.Recycle(batch)
	l.mu.Lock()
	l.pending -= n
	if err != nil && l.werr == nil {
		l.werr = fmt.Errorf("transport: write: %w", err)
	}
	l.flushCond.Broadcast()
	l.mu.Unlock()
}

// discardRing drains whatever is left after a write error, returning
// pooled buffers and releasing Flush waiters. The frames are lost — the
// connection is already torn, there is no wire to reach.
func (l *TCPLink) discardRing() {
	for {
		batch, ok := l.ring.PopBatch()
		if !ok {
			return
		}
		l.releaseBatch(batch, nil)
	}
}

// closeDrainTimeout bounds how long Close waits for the writer to put
// already-accepted frames on the wire before tearing the socket down.
const closeDrainTimeout = 5 * time.Second

// Close implements Link: it stops accepting frames, lets the writer
// drain what was already accepted (an accepted Send reaches the wire
// unless the connection fails — the pre-ring Send wrote synchronously,
// and callers rely on send-then-Close being durable), then closes the
// connection and waits for the reader to exit. A peer that has stopped
// reading cannot wedge teardown: the write deadline fails the drain and
// the remaining frames are discarded.
func (l *TCPLink) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.flushCond.Broadcast()
	l.mu.Unlock()
	l.ring.Close()
	_ = l.conn.SetWriteDeadline(time.Now().Add(l.drain))
	<-l.writerDone
	err := l.conn.Close()
	<-l.done
	return err
}

// Done returns a channel closed when the reader goroutine exits (peer
// closed or Close was called).
func (l *TCPLink) Done() <-chan struct{} { return l.done }

func (l *TCPLink) readLoop(recv Receiver) {
	defer close(l.done)
	// The error only says the connection closed or broke; the receiver
	// stops hearing from this peer either way.
	_ = readFrames(l.sock, l.peerHop, recv)
}

// socketIO is the link's data path on its connection: Read feeds the
// reader's buffer, writeBuffers puts one drained batch on the wire.
type socketIO interface {
	io.Reader
	writeBuffers(bufs net.Buffers) error
}

// plainIO is the portable socketIO: conn.Read and net.Buffers.WriteTo.
type plainIO struct{ conn net.Conn }

func (p plainIO) Read(b []byte) (int, error) { return p.conn.Read(b) }

func (p plainIO) writeBuffers(bufs net.Buffers) error {
	_, err := bufs.WriteTo(p.conn)
	return err
}

// readFrames reads length-prefixed frames from r until a read fails, and
// returns that error. Every frame complete in the buffer after a read is
// decoded and delivered as one burst (deliverBurst), at most maxReadBurst
// frames at a time; a malformed frame is skipped, its neighbours kept.
func readFrames(r io.Reader, from wire.Hop, recv Receiver) error {
	br := bufio.NewReaderSize(r, readBufferSize)
	var burst []wire.Message
	for {
		// Decode the first frame even if it has to wait for the socket —
		// nothing is in hand yet — then only frames already buffered.
		for len(burst) == 0 || len(burst) < maxReadBurst && frameBuffered(br) {
			m, ok, err := nextFrame(br)
			if err != nil {
				if len(burst) > 0 {
					deliverBurst(recv, from, burst)
				}
				return err
			}
			if ok {
				burst = append(burst, m)
			}
		}
		deliverBurst(recv, from, burst)
		clear(burst) // drop the references so the messages are not pinned
		burst = burst[:0]
	}
}

// frameBuffered reports whether the next frame is entirely in br's buffer,
// so that reading it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return uint64(br.Buffered()-4) >= uint64(binary.BigEndian.Uint32(hdr))
}

// nextFrame reads and decodes one frame; ok is false for a malformed frame
// that was skipped. A frame that fits the buffer is decoded in place, and
// the only bytes the decoded message keeps — the pass-through Frame — are
// copied out, because the buffer is overwritten by the next read.
func nextFrame(br *bufio.Reader) (m wire.Message, ok bool, err error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return wire.Message{}, false, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrameSize {
		return wire.Message{}, false, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	size := 4 + int(n)
	if size > br.Size() {
		_, _ = br.Discard(4) // the header is buffered
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return wire.Message{}, false, err
		}
		m, err := wire.Decode(buf)
		return m, err == nil, nil
	}
	p, err := br.Peek(size)
	if err != nil {
		return wire.Message{}, false, err
	}
	m, err = wire.Decode(p[4:])
	_, _ = br.Discard(size) // the frame is buffered
	if err != nil {
		return wire.Message{}, false, nil
	}
	if m.Frame != nil {
		m.Frame = bytes.Clone(m.Frame)
	}
	return m, true, nil
}

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame of at most limit bytes with exact reads, so
// nothing past the frame is consumed from r.
func readFrame(r io.Reader, limit uint32) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > limit {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
