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
	"repro/internal/message"
	"repro/internal/wire"
)

// TCPLink is a link endpoint over a TCP connection. Frames are
// length-prefixed (4-byte big-endian) wire-codec messages. A handshake
// exchanges broker identities so each side knows which Hop its inbound
// messages belong to.
//
// Sends do not write the socket directly: they encode (or reuse a cached
// frame) and enqueue onto a bounded frame ring — a flow.Queue — drained
// by a writer goroutine, so a slow socket never stalls the sender's run
// loop until the ring's policy says so. A SendBatch encodes its burst
// before taking any lock and then enters the ring with one flush-slot
// reservation and one PushBurst. The writer copies each drained frame of
// at most coalesceMax bytes into one fixed coalesceSize buffer and hands
// larger frames to the kernel as their own iovecs, so a drain of small
// frames costs one write syscall per coalesceSize bytes. The default ring
// Blocks at DefaultSendWindow frames, preserving the old blocking-write
// backpressure while decoupling syscalls from Send; WithSendWindow
// overrides capacity and policy. Frames are admitted by
// wire.Type.FlowClass: publishes take the full policy, deliveries are
// lossless (never dropped — that would skip client sequence numbers — but
// they fill the ring and stall the sender when it is full, so a stalled
// client pins at most a ring's worth of frames), and control frames
// bypass the policy entirely, so routing and relocation traffic is never
// shed by an overloaded ring. SendDeliver writes a client delivery
// straight into a pooled frame buffer, splicing in the publish's
// notification bytes when the broker has them.
//
// The receive side is batched the same way: the reader goroutine reads
// the socket through a readBufferSize buffer, so one read syscall picks
// up every frame the kernel already holds, decodes each frame that is
// complete in the buffer, and hands them to a BatchReceiver as one
// ReceiveBurst (a broker's mailbox takes its lock once per burst). A
// burst is handed off as soon as the next frame is not fully buffered, so
// no decoded frame waits behind a read that could block. Receivers that
// are not batch-aware get one Receive per frame, in order. A publish's
// notification and its pass-through frame are carved from chunks the
// reader owns (frameReader), so a small publish costs a fraction of an
// allocation.
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

	// sendMu guards batch, SendBatch's encode scratch; it is held across
	// a Block stall, so concurrent bursts queue behind it as they would
	// behind the ring.
	sendMu sync.Mutex
	batch  []tcpFrame

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
var _ DeliverySender = (*TCPLink)(nil)
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

// maxChunkedFrame is the largest pass-through frame the reader copies
// into a shared chunk; a larger one gets a buffer of its own.
const maxChunkedFrame = 256

// coalesceMax is the largest frame payload the writer copies into its
// coalescing buffer; a larger frame is written from its own buffer.
const coalesceMax = 512

// coalesceSize is the writer's coalescing buffer. It never grows: a drain
// of small frames that does not fit is written in several pieces.
const coalesceSize = 64 << 10

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
	fr, err := encodeFrame(&m)
	if err != nil {
		return err
	}
	return l.admit([]tcpFrame{fr})
}

// SendBatch implements BatchSender. The burst is encoded first, then
// enters the ring under one flush-slot reservation and one PushBurst; an
// encode error stops it at the failing message, the frames before it
// still sent. FIFO holds per sending goroutine; concurrent senders'
// bursts may interleave at a Block stall, as their Sends always could.
func (l *TCPLink) SendBatch(ms []wire.Message) error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	frames := l.batch[:0]
	var encErr error
	for i := range ms {
		fr, err := encodeFrame(&ms[i])
		if err != nil {
			encErr = err
			break
		}
		frames = append(frames, fr)
	}
	err := l.admit(frames)
	clear(frames) // the frames are the ring's now; keep no references
	if cap(frames) > flow.MaxRecycledCap {
		frames = nil // a spike's array goes to the GC, as the ring's does
	}
	l.batch = frames[:0]
	if err != nil {
		return err
	}
	return encErr
}

// SendDeliver implements DeliverySender: d is encoded straight into a
// pooled frame buffer, with body (when non-nil, the canonical encoding of
// d.Item.Notif) copied in instead of encoding the notification again.
func (l *TCPLink) SendDeliver(d wire.Deliver, body []byte) error {
	buf := wire.GetEncodeBuf()
	*buf = wire.AppendDeliver(*buf, &d, body)
	fr := tcpFrame{payload: *buf, pooled: buf, cls: flow.Lossless}
	binary.BigEndian.PutUint32(fr.hdr[:], uint32(len(fr.payload)))
	return l.admit([]tcpFrame{fr})
}

// encodeFrame builds m's ring entry: its cached frame, or an encoding
// into a pooled buffer.
func encodeFrame(m *wire.Message) (tcpFrame, error) {
	fr := tcpFrame{cls: m.Type.FlowClass(), payload: m.Frame}
	if fr.payload == nil {
		buf := wire.GetEncodeBuf()
		f, err := wire.AppendEncode(*buf, *m)
		if err != nil {
			wire.PutEncodeBuf(buf)
			return tcpFrame{}, fmt.Errorf("transport: encode: %w", err)
		}
		*buf = f
		fr.payload, fr.pooled = f, buf
	}
	binary.BigEndian.PutUint32(fr.hdr[:], uint32(len(fr.payload)))
	return fr, nil
}

// reserve takes n flush slots, or reports why the link takes no frames.
// The slots are taken before the frames reach the ring, so a concurrent
// Flush cannot observe pending == 0 between a push and its accounting.
func (l *TCPLink) reserve(n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.werr != nil {
		return l.refusalLocked()
	}
	l.pending += n
	return nil
}

// refusalLocked is the error for frames the link no longer takes: the
// write error that stopped it, or ErrLinkClosed. l.mu is held.
func (l *TCPLink) refusalLocked() error {
	if l.werr != nil {
		return l.werr
	}
	return ErrLinkClosed
}

// admit enqueues encoded frames as one burst: one reservation, one
// PushBurst. Frames the ring's policy sheds, or that a closing ring
// refuses, give their slots back; a shed frame is a successful send,
// accounted in FlowStats. When no frame got in, their pooled buffers go
// back to the pool; a partly admitted burst's refused buffers go to the
// GC, since the ring does not say which frames they were.
func (l *TCPLink) admit(frames []tcpFrame) error {
	n := len(frames)
	if n == 0 {
		return nil
	}
	if err := l.reserve(n); err != nil {
		putFrames(frames)
		return err
	}
	admitted, err := l.ring.PushBurst(n, func(i int) tcpFrame { return frames[i] })
	if admitted < n {
		l.unreserve(n - admitted)
		if admitted == 0 {
			putFrames(frames)
		}
	}
	if err != nil { // flow.ErrClosed
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.refusalLocked()
	}
	return nil
}

// putFrames returns the frames' pooled encode buffers.
func putFrames(frames []tcpFrame) {
	for i := range frames {
		if frames[i].pooled != nil {
			wire.PutEncodeBuf(frames[i].pooled)
			frames[i].pooled = nil
		}
	}
}

// unreserve gives back n flush slots for frames that never reached the
// ring (shed, or refused by a closed ring).
func (l *TCPLink) unreserve(n int) {
	l.mu.Lock()
	l.pending -= n
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

// writeLoop drains the frame ring and writes each drained batch
// (frameWriter). Pooled encode buffers are returned after the write; a
// write error poisons the link (subsequent Sends fail) and the rest of
// the ring is discarded.
func (l *TCPLink) writeLoop() {
	defer close(l.writerDone)
	w := frameWriter{sock: l.sock, coal: make([]byte, 0, coalesceSize)}
	for {
		batch, ok := l.ring.PopBatch()
		if !ok {
			return
		}
		err := w.write(batch)
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

// frameWriter puts drained batches on the wire. Frames of at most
// coalesceMax bytes are copied, header and payload, into coal, a fixed
// coalesceSize buffer; each larger frame keeps two iovecs of its own,
// {header, payload}, in order between the coalesced runs. A batch is one
// vectored write (split at the kernel's IOV_MAX by the socket), or one
// more each time coal fills.
type frameWriter struct {
	sock socketIO
	coal []byte      // fixed capacity coalesceSize, never regrown
	bufs net.Buffers // the pending write's iovecs; backing array kept
}

func (w *frameWriter) write(batch []tcpFrame) error {
	bufs, coal := w.bufs[:0], w.coal[:0]
	run := -1 // index in bufs of the coalesced run ending at len(coal)
	runStart := 0
	for i := range batch {
		fr := &batch[i]
		if len(fr.payload) > coalesceMax {
			bufs = append(bufs, fr.hdr[:], fr.payload)
			run = -1
			continue
		}
		if len(coal)+len(fr.hdr)+len(fr.payload) > cap(coal) {
			if err := w.flush(bufs); err != nil {
				return err
			}
			bufs, coal, run = bufs[:0], coal[:0], -1
		}
		if run < 0 {
			run, runStart = len(bufs), len(coal)
			bufs = append(bufs, nil)
		}
		coal = append(coal, fr.hdr[:]...)
		coal = append(coal, fr.payload...)
		bufs[run] = coal[runStart:]
	}
	w.bufs = bufs[:0]
	return w.flush(bufs)
}

// flush writes bufs and drops their references, so the kept backing
// array does not pin large payloads until the next drain.
func (w *frameWriter) flush(bufs net.Buffers) error {
	if len(bufs) == 0 {
		return nil
	}
	err := w.sock.writeBuffers(bufs)
	clear(bufs)
	return err
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
// the remaining frames are discarded. Close returns nil once the writer
// has failed — it closed the connection itself, and Send and Flush report
// its error.
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
	l.mu.Lock()
	failed := l.werr != nil
	l.mu.Unlock()
	if failed {
		// The writer closed the connection when its write failed, so the
		// teardown is complete; Send and Flush report that failure.
		return nil
	}
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
	fr := frameReader{br: bufio.NewReaderSize(r, readBufferSize)}
	var burst []wire.Message
	for {
		// Decode the first frame even if it has to wait for the socket —
		// nothing is in hand yet — then only frames already buffered.
		for len(burst) == 0 || len(burst) < maxReadBurst && fr.buffered() {
			m, ok, err := fr.next()
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

// frameReader is a link's receive side: its socket buffer, and the
// chunks a publish's decoded notification (message.Chunks) and its
// pass-through frame of at most maxChunkedFrame bytes are carved from.
// Like message.Chunks it never reuses a chunk, so a frame held in a send
// window pins at most one message.ChunkSize chunk.
type frameReader struct {
	br     *bufio.Reader
	notifs message.Chunks
	frames []byte // free tail of the current frame chunk
}

// buffered reports whether the next frame is entirely in the buffer, so
// that reading it cannot block.
func (fr *frameReader) buffered() bool {
	br := fr.br
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return uint64(br.Buffered()-4) >= uint64(binary.BigEndian.Uint32(hdr))
}

// next reads and decodes one frame; ok is false for a malformed frame that
// was skipped. A frame that fits the buffer is decoded in place, and the
// only bytes the decoded message keeps — the pass-through Frame — are
// copied out, because the buffer is overwritten by the next read.
func (fr *frameReader) next() (m wire.Message, ok bool, err error) {
	br := fr.br
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
		m, err := wire.DecodeChunked(buf, &fr.notifs)
		return m, err == nil, nil
	}
	p, err := br.Peek(size)
	if err != nil {
		return wire.Message{}, false, err
	}
	m, err = wire.DecodeChunked(p[4:], &fr.notifs)
	if err == nil && m.Frame != nil {
		m.Frame = fr.keep(m.Frame)
	}
	_, _ = br.Discard(size) // the frame is buffered
	return m, err == nil, nil
}

// keep copies a pass-through frame out of the read buffer: into the frame
// chunk when it is at most maxChunkedFrame bytes, into a buffer of its own
// otherwise. The copy's capacity is its length, so nothing appends into a
// neighbour.
func (fr *frameReader) keep(b []byte) []byte {
	if len(b) > maxChunkedFrame {
		return bytes.Clone(b)
	}
	if len(fr.frames) < len(b) {
		fr.frames = make([]byte, message.ChunkSize)
	}
	k := fr.frames[:len(b):len(b)]
	copy(k, b)
	fr.frames = fr.frames[len(b):]
	return k
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
