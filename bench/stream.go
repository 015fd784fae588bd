package main

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/wire"
)

// streamWorkload is the shape transit_chain and selective_match share: one
// publisher on the first broker, one subscriber on the last holding every
// subscription, an open-loop phase at a fixed rate and then a closed-loop
// saturation phase with a fixed window of publishes in flight.
type streamWorkload struct {
	name   string
	topo   topology
	rate   float64 // open-loop publishes per second
	window int     // publishes in flight during the saturation phase
	inputs func(seed int64, short bool) streamInputs
}

// streamInputs are a stream workload's seeded inputs. Publish k carries the
// attributes of pool[k%len(pool)] plus seq and ts, and must be delivered
// once to each subscription listed in expect[k%len(pool)] and to no other.
type streamInputs struct {
	srcs   []string // subs as filter source text
	subs   []filter.Filter
	pool   []message.Notification
	expect [][]int32
}

// build returns publish k of the stream.
func (in *streamInputs) build(k, due int64) message.Notification {
	c := in.pool[k%int64(len(in.pool))]
	attrs := make([]message.Attr, 0, c.Len()+2)
	for i := 0; i < c.Len(); i++ {
		attrs = append(attrs, c.At(i))
	}
	attrs = append(attrs,
		message.Attr{Name: attrSeq, Value: message.Int(k)},
		message.Attr{Name: attrTS, Value: message.Int(due)})
	return message.NewAttrs(attrs...)
}

func subID(i int) wire.SubID { return wire.SubID("s" + strconv.Itoa(i)) }

func subIndex(id wire.SubID) (int32, bool) {
	if len(id) < 2 || id[0] != 's' {
		return 0, false
	}
	i, err := strconv.ParseInt(string(id[1:]), 10, 32)
	return int32(i), err == nil
}

// pendingRing is how many publishes the window accounting can tell apart;
// it only has to exceed the saturation window.
const pendingRing = 1 << 16

// streamSession is one set-up overlay with its two clients attached.
type streamSession struct {
	clk    clock
	in     *streamInputs
	ov     *overlay
	pub    *client
	sub    *client
	fences *fencer
	tr     *tracer

	arr        *arrivals    // owned by the subscriber link's reader goroutine until the run ends
	delivered  atomic.Int64 // rows in arr
	unexpected atomic.Int64 // deliveries that name no stream subscription or carry no seq

	// Window accounting: pending[k%pendingRing] counts the deliveries
	// publish k still owes; a closed-loop publish holds a token until that
	// reaches zero.
	pending    []atomic.Int32
	closedFrom atomic.Int64 // first closed-loop publish; math.MaxInt64 before that phase
	tokens     chan struct{}
}

func (s *streamSession) onDeliver(d *wire.Deliver) {
	at := s.clk.now()
	seq, ok1 := intAttr(d.Item.Notif, attrSeq)
	sub, ok2 := subIndex(d.ID)
	if !ok1 || !ok2 || seq < 0 {
		s.unexpected.Add(1)
		return
	}
	s.arr.add(seq, sub, at)
	s.delivered.Add(1)
	s.tr.delivered(seq, at)
	if s.pending[seq%pendingRing].Add(-1) == 0 && seq >= s.closedFrom.Load() {
		<-s.tokens
	}
}

// setup starts an overlay, attaches the publisher and the subscriber,
// installs every subscription and fences them.
func (w *streamWorkload) setup(p *params, in *streamInputs, arr *arrivals, clk clock, tag string) (*streamSession, error) {
	ov, err := startOverlay(p, w.topo, tag)
	if err != nil {
		return nil, err
	}
	s := &streamSession{clk: clk, in: in, ov: ov, tr: p.tracer, arr: arr,
		pending: make([]atomic.Int32, pendingRing), tokens: make(chan struct{}, w.window)}
	s.closedFrom.Store(1<<63 - 1)
	fail := func(err error) (*streamSession, error) {
		s.close()
		return nil, err
	}
	if s.pub, s.fences, err = dialPublisher(ov.addr(0)); err != nil {
		return fail(err)
	}
	if s.sub, err = dialClient(ov.addr(len(w.topo.ids)-1), "sub", s.onDeliver); err != nil {
		return fail(err)
	}
	if err := s.fences.install(s.sub); err != nil {
		return fail(err)
	}
	if err := s.fences.admit(s.sub); err != nil {
		return fail(err)
	}
	for i, f := range in.subs {
		if err := s.sub.Send(wire.NewSubscribe(wire.Subscription{Filter: f, ID: subID(i)})); err != nil {
			return fail(fmt.Errorf("subscribe %d: %w", i, err))
		}
	}
	if err := s.fences.fence(s.sub, setupTimeout); err != nil {
		return fail(err)
	}
	return s, nil
}

func (s *streamSession) close() {
	if s.pub != nil {
		_ = s.pub.Close()
	}
	if s.sub != nil {
		_ = s.sub.Close()
	}
	s.ov.close()
}

// publish sends stream publish k, charging its expected deliveries to the
// window accounting first.
func (s *streamSession) publish(k, due int64) (message.Notification, int) {
	owed := len(s.in.expect[k%int64(len(s.in.expect))])
	s.pending[k%pendingRing].Store(int32(owed))
	return s.in.build(k, due), owed
}

// awaitDeliveries waits until the subscriber has received want deliveries
// in total or nothing has arrived for a second.
func (s *streamSession) awaitDeliveries(want int64) {
	last, lastChange := s.delivered.Load(), time.Now()
	for last < want && time.Since(lastChange) < time.Second {
		time.Sleep(time.Millisecond)
		if now := s.delivered.Load(); now != last {
			last, lastChange = now, time.Now()
		}
	}
}

func (w *streamWorkload) run(p *params) (*outcome, error) {
	in := w.inputs(p.seed, p.short)
	clk := p.clock()
	out := newOutcome(w.name)

	// The receiver's record is allocated once, outside the timed set-ups;
	// nothing is delivered during the ones that are discarded.
	var arr arrivals
	arr.reserve(int(w.rate*p.seconds*2) + 1<<20)
	s, err := setUp(p, out, func() (*streamSession, error) { return w.setup(p, &in, &arr, clk, w.name) })
	if err != nil {
		return nil, err
	}
	defer s.close()

	ramp := rampSeconds(p.seconds)
	openDur, closedDur := 0.6*p.seconds, 0.4*p.seconds

	var (
		seq      atomic.Int64
		log      = sendLog{tr: p.tracer}
		owedOpen int64 // deliveries the open-loop publishes owe
		owedAll  int64
	)
	unpin, resumeGC := pinSender(), holdGC()

	// Open loop.
	interval := nsOf(1 / w.rate)
	openStart := clk.now() + nsOf(0.01)
	sch := schedule{start: openStart, interval: interval, slots: int64(openDur * w.rate)}
	open := newWindows(openStart+nsOf(ramp), openStart+sch.slots*interval, streamWindow)
	cpu := sampleCPU(clk, s.ov, open)
	runOpenLoop(clk, s.pub, sch, &seq, &log, func(k, due int64) message.Notification {
		n, owed := s.publish(k, due)
		owedOpen += int64(owed)
		return n
	})
	unpin() // the closed loop sends flat out and must not outrank the generator's own readers
	resumeGC()
	openPublishes := seq.Load()
	s.awaitDeliveries(owedOpen)
	if err := cpu.wait(); err != nil {
		return nil, err
	}
	if p.afterOpen != nil {
		p.afterOpen(s.ov)
	}

	// Closed loop: the window is full whenever the sender can fill it. A
	// publish holds its token until its last delivery has arrived, so a lost
	// delivery holds one for good; the wait for a token therefore ends with
	// the phase, and the oracle below counts what went missing.
	owedAll = owedOpen
	closedStart := clk.now()
	closedEnd := closedStart + nsOf(closedDur)
	closed := newWindows(closedStart+nsOf(ramp), closedEnd, streamWindow)
	closedCPU := sampleCPU(clk, s.ov, closed)
	s.closedFrom.Store(openPublishes)
	phaseOver := time.NewTimer(time.Duration(closedDur * float64(time.Second)))
	defer phaseOver.Stop()
closedLoop:
	for clk.now() < closedEnd {
		select {
		case s.tokens <- struct{}{}:
		case <-phaseOver.C:
			break closedLoop
		}
		k := seq.Load()
		n, owed := s.publish(k, 0)
		owedAll += int64(owed)
		err := s.pub.Send(wire.NewPublish(n))
		seq.Store(k + 1)
		if err != nil {
			// The link is gone and stays gone.
			log.errs++
			<-s.tokens
			break
		}
	}
	s.awaitDeliveries(owedAll)
	if err := closedCPU.wait(); err != nil {
		return nil, err
	}
	rss, err := s.ov.rssPeakMB()
	if err != nil {
		return nil, err
	}

	// The reader goroutine may still be appending if deliveries went
	// missing and trickle in late; closing the link first makes arr ours.
	_ = s.sub.Close()

	// Oracle: every publish delivered exactly once to each expected
	// subscription and to no other, in publisher order per subscription.
	t := &out.tally
	t.attempted = seq.Load()
	t.refused = log.errs
	t.unexpected = s.unexpected.Load()
	lastSeq := make([]int64, len(in.subs))
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	var valid int64
	for i, k := range s.arr.seq {
		sub := s.arr.sub[i]
		switch {
		case k >= t.attempted || int(sub) >= len(in.subs) || !slices.Contains(in.expect[k%int64(len(in.expect))], sub):
			t.unexpected++
		case k == lastSeq[sub]:
			t.duplicate++
		case k < lastSeq[sub]:
			t.reordered++
		default:
			lastSeq[sub] = k
			valid++
		}
	}
	t.missing = owedAll - valid

	// Metrics.
	var due, lat []int64
	for i, k := range s.arr.seq {
		if k < openPublishes {
			due = append(due, log.due[k])
			lat = append(lat, s.arr.at[i]-log.due[k])
		}
	}
	out.latency(open, due, lat)
	out.cpuPerDelivery(cpu, s.arr.at)
	out.set("broker_rss_peak_mb", rss, "MB")
	out.rate("closed_loop_per_s", closed, s.arr.at)
	out.set("closed_loop_broker_busy", closedCPU.busy(), "ratio")
	out.note("closed_loop_per_s counts deliveries with %d publishes in flight; closed_loop_broker_busy is the share of their one CPU the brokers used meanwhile",
		w.window)
	out.note("%.3f deliveries owed per publish", float64(owedAll)/float64(t.attempted))
	out.generator(&log, w.rate, open)
	return out, nil
}
