// Package transport provides the point-to-point, FIFO-ordered,
// error-free communication links the paper's system model assumes
// (Section 2.1): in-process channel links with configurable latency for
// tests and experiments, and TCP links for distributed deployment.
package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Inbound is a message as it arrives at a broker, tagged with the hop it
// came from.
type Inbound struct {
	From wire.Hop
	Msg  wire.Message
}

// Receiver consumes inbound messages. Implementations must be safe for
// concurrent use; per-link FIFO order is preserved by the links.
type Receiver interface {
	Receive(in Inbound)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(Inbound)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(in Inbound) { f(in) }

var _ Receiver = ReceiverFunc(nil)

// Link is one endpoint of a bidirectional broker-to-broker or
// client-to-broker connection.
type Link interface {
	// Send transmits a message to the peer, preserving FIFO order with
	// respect to prior Sends on this link. A Send consumed by the link's
	// overload policy (send-window shedding) still returns nil: the
	// message was accepted and disposed of, and the loss is accounted in
	// the link's flow stats.
	Send(m wire.Message) error
	// Close tears the link down; subsequent Sends fail.
	Close() error
}

// BatchSender is an optional Link capability: transmit a slice of messages
// as one FIFO burst, amortizing per-message handoff costs (lock
// acquisitions, syscalls). The burst is ordered with respect to Send calls
// on the same link. Implementations must not retain ms past the call.
type BatchSender interface {
	SendBatch(ms []wire.Message) error
}

// Flusher is an optional Link capability for transports that buffer or
// queue writes (TCP): Flush blocks until everything accepted so far is on
// the wire, or returns the write error that stopped it.
type Flusher interface {
	Flush() error
}

// FrameEncoder marks links that serialize messages to bytes (TCP).
// Brokers pre-encode a fan-out message once (wire.Preencode) when at
// least one attached link has this capability.
type FrameEncoder interface {
	EncodesFrames()
}

// DeliverySender is an optional Link capability of links that serialize
// frames (TCP): send one client delivery without boxing it in a
// wire.Message. body, when non-nil, must be the canonical encoding of
// d.Item.Notif (wire.Message.NotifBody of the publish that carried it);
// the link copies it into the frame instead of encoding the notification
// again, and does not retain it past the call.
type DeliverySender interface {
	SendDeliver(d wire.Deliver, body []byte) error
}

// BatchReceiver is an optional Receiver capability: accept a FIFO burst of
// messages from a single hop with one handoff (e.g. one mailbox lock
// acquisition). Implementations must not retain the slice past the call.
type BatchReceiver interface {
	Receiver
	ReceiveBurst(from wire.Hop, ms []wire.Message)
}

// ErrLinkClosed is returned by Send after Close.
var ErrLinkClosed = errors.New("transport: link closed")

// ChanLink is an in-process link endpoint. Messages are handed to the
// remote receiver either synchronously (no latency, no window) or through
// a pump: a flow-controlled queue drained by one goroutine that models
// link latency and — when a send window is configured — bounds how far a
// slow receiver can fall behind before the window's overload policy
// engages. Messages are admitted by wire.Type.FlowClass: publishes take
// the full policy, deliveries are lossless (never shed, but they stall
// the sender on a full window), and control messages are exempt, so
// routing and relocation traffic is never shed.
//
// Close semantics: once Close returns, no further synchronous delivery
// begins — Close waits for in-flight Sends to finish handing off, so a
// racing Send either completes before Close returns or fails with
// ErrLinkClosed. Messages already inside the pump still drain (the link
// models error-free FIFO delivery; bytes on the wire arrive). Close must
// not be called from the delivery path of its own link.
type ChanLink struct {
	localHop wire.Hop // how the remote side sees us
	remote   Receiver
	latency  time.Duration
	counter  *metrics.Counter
	pump     *linkPump

	mu       sync.Mutex
	cond     *sync.Cond // signals inflight reaching zero after close
	closed   bool
	inflight int
}

var _ Link = (*ChanLink)(nil)
var _ BatchSender = (*ChanLink)(nil)
var _ flow.Reporter = (*ChanLink)(nil)

// PipeOption configures a Pipe.
type PipeOption func(*pipeConfig)

type pipeConfig struct {
	latencyAB time.Duration
	latencyBA time.Duration
	counter   *metrics.Counter
	window    *flow.Options
}

// WithLatency sets a symmetric one-way latency for both directions.
func WithLatency(d time.Duration) PipeOption {
	return func(c *pipeConfig) {
		c.latencyAB = d
		c.latencyBA = d
	}
}

// WithAsymmetricLatency sets distinct latencies for the two directions.
func WithAsymmetricLatency(ab, ba time.Duration) PipeOption {
	return func(c *pipeConfig) {
		c.latencyAB = ab
		c.latencyBA = ba
	}
}

// WithCounter counts every message crossing the pipe (in either direction)
// into the given counter, categorized by message type.
func WithCounter(cnt *metrics.Counter) PipeOption {
	return func(c *pipeConfig) { c.counter = cnt }
}

// WithWindow gives both directions of the pipe a bounded send window with
// the given capacity and overload policy: a sender gets at most Capacity
// notifications of headroom before the policy engages (Block stalls the
// sender, ShedNewest sheds). Deliveries decouple from Send onto the pump
// goroutine, like a latency pipe's.
func WithWindow(o flow.Options) PipeOption {
	return func(c *pipeConfig) { c.window = &o }
}

// Pipe connects two receivers with a pair of link endpoints. aHop is the
// identity under which A's messages arrive at B, and vice versa.
func Pipe(aHop, bHop wire.Hop, a, b Receiver, opts ...PipeOption) (fromA, fromB *ChanLink) {
	var cfg pipeConfig
	for _, o := range opts {
		o(&cfg)
	}
	la := &ChanLink{localHop: aHop, remote: b, latency: cfg.latencyAB, counter: cfg.counter}
	lb := &ChanLink{localHop: bHop, remote: a, latency: cfg.latencyBA, counter: cfg.counter}
	la.cond = sync.NewCond(&la.mu)
	lb.cond = sync.NewCond(&lb.mu)
	if cfg.latencyAB > 0 || cfg.window != nil {
		la.pump = newLinkPump(cfg.window)
		go la.pumpRun()
	}
	if cfg.latencyBA > 0 || cfg.window != nil {
		lb.pump = newLinkPump(cfg.window)
		go lb.pumpRun()
	}
	return la, lb
}

// beginSend registers an in-flight delivery; it fails once the link is
// closed. Holding delivery inside the begin/end window is what closes the
// seed's race where a Send that passed the closed check could still
// deliver after Close returned.
func (l *ChanLink) beginSend() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLinkClosed
	}
	l.inflight++
	return nil
}

func (l *ChanLink) endSend() {
	l.mu.Lock()
	l.inflight--
	if l.inflight == 0 && l.closed {
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// Send implements Link.
func (l *ChanLink) Send(m wire.Message) error {
	if err := l.beginSend(); err != nil {
		return err
	}
	defer l.endSend()
	if l.counter != nil {
		l.counter.Inc(categorize(m))
	}
	if l.pump == nil {
		l.remote.Receive(Inbound{From: l.localHop, Msg: m})
		return nil
	}
	err := l.pump.q.Push(timedMsg{due: l.due(), burst: l.pump.nextBurst(), m: m})
	if err == flow.ErrClosed {
		return ErrLinkClosed
	}
	// flow.ErrShed means the window's policy consumed the message; the
	// Send succeeded and the drop is visible in FlowStats.
	return nil
}

// SendBatch implements BatchSender: the messages cross the link as one
// FIFO burst — a single receiver handoff on the synchronous path, a
// single pump enqueue otherwise. The window policy applies per message,
// so control inside a burst survives shedding around it.
func (l *ChanLink) SendBatch(ms []wire.Message) error {
	if len(ms) == 0 {
		return nil
	}
	if err := l.beginSend(); err != nil {
		return err
	}
	defer l.endSend()
	if l.counter != nil {
		for _, m := range ms {
			l.counter.Inc(categorize(m))
		}
	}
	if l.pump == nil {
		deliverBurst(l.remote, l.localHop, ms)
		return nil
	}
	// The pump queue copies each message, so the caller is free to reuse
	// ms once SendBatch returns.
	due, burst := l.due(), l.pump.nextBurst()
	_, err := l.pump.q.PushBurst(len(ms), func(i int) timedMsg {
		return timedMsg{due: due, burst: burst, m: ms[i]}
	})
	if err == flow.ErrClosed {
		return ErrLinkClosed
	}
	return nil
}

func (l *ChanLink) due() time.Time {
	if l.latency <= 0 {
		return time.Time{} // deliver as soon as the pump gets to it
	}
	return time.Now().Add(l.latency)
}

// FlowStats implements flow.Reporter: the send window's counters, or a
// zero snapshot for a synchronous (pump-less) link.
func (l *ChanLink) FlowStats() flow.Stats {
	if l.pump == nil {
		return flow.Stats{}
	}
	return l.pump.q.Stats()
}

// WaitIdle blocks until every message the link had accepted before the
// call has been handed to the receiver (or evicted by the window
// policy). Synchronous links deliver inside Send, so it returns
// immediately. Meant for tests and graceful shutdown sequencing; it does
// not stop new sends from arriving while it waits.
//
// It works by pushing a control-class sentinel through the pump queue:
// control is never shed, evicted, or stalled, and delivery is FIFO, so
// by the time the pump reaches the sentinel every earlier message has
// been delivered or evicted — exact even while concurrent sends (and
// concurrent window evictions) keep the counters moving.
func (l *ChanLink) WaitIdle() {
	if l.pump == nil {
		return
	}
	marker := make(chan struct{})
	err := l.pump.q.Push(timedMsg{burst: l.pump.nextBurst(), sentinel: marker})
	if err != nil {
		// Closed queue: the pump is draining its remainder; idle when it
		// exits.
		<-l.pump.done
		return
	}
	select {
	case <-marker:
	case <-l.pump.done:
	}
}

// deliverBurst hands a burst to the receiver, collapsing it into one
// handoff when the receiver is batch-aware.
func deliverBurst(r Receiver, from wire.Hop, ms []wire.Message) {
	if br, ok := r.(BatchReceiver); ok {
		br.ReceiveBurst(from, ms)
		return
	}
	for _, m := range ms {
		r.Receive(Inbound{From: from, Msg: m})
	}
}

// Close implements Link. It waits for in-flight Sends to complete their
// handoff, so no synchronous delivery begins after Close returns — every
// Close call waits, so concurrent closers all get the guarantee. Messages
// already accepted by the pump still drain before its goroutine exits
// (stopping it early would turn modeled latency into loss mid-test).
func (l *ChanLink) Close() error {
	l.mu.Lock()
	l.closed = true
	for l.inflight > 0 {
		l.cond.Wait()
	}
	l.mu.Unlock()
	if l.pump != nil {
		l.pump.q.Close()
		<-l.pump.done
	}
	return nil
}

func categorize(m wire.Message) metrics.Category {
	switch {
	case m.Type == wire.TypePublish:
		return metrics.CategoryNotification
	case m.Type == wire.TypeDeliver:
		return metrics.CategoryDeliver
	case m.Type == wire.TypeFetch || m.Type == wire.TypeReplay:
		return metrics.CategoryControl
	default:
		return metrics.CategoryAdmin
	}
}

// linkPump is the asynchronous delivery half of a ChanLink: a flow queue
// of messages stamped with their due time, drained in order by one
// goroutine. It subsumes the old delayLine (whose head-popping
// `queue = queue[1:]` stranded the backing array head; the flow queue's
// drain-batch swap reuses it) and adds the send window: with a bounded
// queue, a receiver that stops consuming exerts backpressure — or sheds —
// at this link instead of growing RAM without limit.
type linkPump struct {
	q        *flow.Queue[timedMsg]
	done     chan struct{}
	burstSeq atomic.Uint64
}

// nextBurst stamps one Send or SendBatch: the pump delivers messages
// sharing a stamp as one burst and never merges across stamps, so the
// receiver sees the same burst boundaries the sender produced.
func (p *linkPump) nextBurst() uint64 { return p.burstSeq.Add(1) }

// timedMsg is one queued message with its delivery due time (zero: as
// soon as the pump reaches it) and the burst it belongs to. A timedMsg
// with sentinel set carries no message: the pump closes the channel when
// it reaches it instead of delivering (WaitIdle's quiesce marker).
type timedMsg struct {
	due      time.Time
	burst    uint64
	m        wire.Message
	sentinel chan struct{}
}

func timedClass(tm timedMsg) flow.Class {
	if tm.sentinel != nil {
		return flow.Control
	}
	return tm.m.Type.FlowClass()
}

func newLinkPump(window *flow.Options) *linkPump {
	var o flow.Options
	if window != nil {
		o = *window
	}
	return &linkPump{
		q:    flow.NewQueue[timedMsg](o, timedClass),
		done: make(chan struct{}),
	}
}

// pumpRun drains the pump queue: it sleeps until the head message is due,
// then delivers it together with the rest of its burst, preserving both
// FIFO order and the sender's burst boundaries (a SendBatch arrives as
// one ReceiveBurst, exactly as on the synchronous path).
func (l *ChanLink) pumpRun() {
	defer close(l.pump.done)
	var burst []wire.Message
	for {
		batch, ok := l.pump.q.PopBatch()
		if !ok {
			return
		}
		for i := 0; i < len(batch); {
			if batch[i].sentinel != nil {
				close(batch[i].sentinel)
				i++
				continue
			}
			if wait := time.Until(batch[i].due); wait > 0 {
				time.Sleep(wait)
			}
			j := i + 1
			for j < len(batch) && batch[j].burst == batch[i].burst {
				j++
			}
			burst = burst[:0]
			for k := i; k < j; k++ {
				burst = append(burst, batch[k].m)
			}
			deliverBurst(l.remote, l.localHop, burst)
			i = j
		}
		l.pump.q.Recycle(batch)
		if cap(burst) > flow.MaxRecycledCap {
			burst = nil
		}
	}
}
