package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/message"
	"repro/internal/wire"
)

// roaming_handoff: the paper's relocation protocol (Section 4) under publish
// load. A publisher on the hub b1 of a star advertises and publishes a
// stream partitioned into lanes; a static watcher, also on the hub (README.md,
// finding 3, says why not on a leaf), subscribes to all of it; a roamer holds
// one mobile subscription per lane and ping-pongs
// between the leaves b2 and b3: close the link, stay dark, dial the other
// leaf and re-issue every subscription with Relocate, the last sequence
// number seen and the next relocation epoch. The hub is the junction of
// every hand-off; the leaf left behind buffers as the roamer's virtual
// counterpart and replays through the hub.
const (
	roamingRate   = 2000.0                 // publishes per second
	roamLanes     = 4                      // mobile subscriptions of the roamer
	roamPeriod    = 100 * time.Millisecond // one hand-off per period
	roamDark      = 20 * time.Millisecond  // link closed → dial at the other leaf
	roamQuietPre  = 3 * time.Millisecond   // no publish is due this long before a close …
	roamQuietPost = 5 * time.Millisecond   // … and this long after it
	roamReissue   = 25 * time.Millisecond  // relocation subscriptions are sent again this often until caught up
	attrLane      = "lane"
	handoffLimit  = 5 * time.Second // a hand-off not caught up by then has failed

	// roamingOffered is the rate the schedule offers once its quiet gaps are
	// taken out.
	roamingOffered = roamingRate * (1 - float64(roamQuietPre+roamQuietPost)/float64(roamPeriod))
)

// The wire protocol has no detach message: a broker learns that a client is
// gone when the TCP connection drops, and whatever it delivers between the
// client's close and its own DetachClient is lost, sequence number and all.
// That window is a property of the TCP teardown, not of the relocation
// protocol this workload measures, so the publish schedule leaves a quiet
// gap around every close, and the roamer holds the publisher's gate through
// it: it closes only once everything published has arrived, and lets the
// publisher go on only once a marker sent through the old leaf on a probe
// client's link has come back. The marker is sent after the close, so the
// leaf reads it after the end of the roamer's connection and has, by the
// time it forwards the marker, queued the detach. Waiting a fixed time
// instead is not enough: the hypervisor stalls one virtual CPU for tens of
// milliseconds while the other runs on, and a leaf that wakes from that
// with the close and a backlog of notifications both waiting may take the
// notifications first. What is published in the rest of the dark period and
// during the relocation is buffered, fetched and replayed as in the paper.
// README.md records what goes missing without these precautions.
//
// Nor does the protocol acknowledge an attach: the daemon starts reading a
// new connection before it has registered the client, so a subscription sent
// right after the handshake can overtake the registration and be dropped
// without a trace. A relocation subscription for a subscription the broker
// already holds is a no-op, so the roamer sends its four again every
// roamReissue until the hand-off has caught up — what a real client without
// acknowledgements has to do.

var roamingHandoff workload = roamingWorkload{}

type roamingWorkload struct{}

func laneSubID(lane int) wire.SubID { return wire.SubID(fmt.Sprintf("lane%d", lane)) }

func laneFilterSrc(lane int) string { return fmt.Sprintf("%s = %d", attrLane, lane) }

// roamPublish returns stream notification k.
func roamPublish(k, due int64) message.Notification {
	return message.NewAttrs(
		message.Attr{Name: attrLane, Value: message.Int(k % roamLanes)},
		message.Attr{Name: attrSeq, Value: message.Int(k)},
		message.Attr{Name: attrTS, Value: message.Int(due)})
}

// roamer is the generator-side state of the roaming client. Deliveries can
// arrive on the old link's reader goroutine while the new link is being
// dialled, so everything is behind one mutex.
type roamer struct {
	clk clock

	mu        sync.Mutex
	brokerSeq [roamLanes]uint64 // last sequence number the border broker assigned, per lane
	nextPub   [roamLanes]int64  // next publisher sequence number expected, per lane; lane l starts at l
	tally     *tally
	arrived   []int64 // arrival time of every accepted delivery
	replayed  int64
	// target is the hand-off in progress: it is complete when every lane has
	// delivered its last notification published before the dial.
	target   [roamLanes]int64
	caughtUp chan int64 // receives the arrival time that completed the target
}

func (r *roamer) onDeliver(d *wire.Deliver) {
	at := r.clk.now()
	k, ok := intAttr(d.Item.Notif, attrSeq)
	lane := int(k % roamLanes)
	r.mu.Lock()
	defer r.mu.Unlock()
	if !ok || k < 0 || d.ID != laneSubID(lane) {
		r.tally.unexpected++
		return
	}
	// Publisher order and completeness per subscription.
	switch {
	case k == r.nextPub[lane]:
	case k > r.nextPub[lane]:
		r.tally.missing += (k - r.nextPub[lane]) / roamLanes
	case k == r.nextPub[lane]-roamLanes:
		r.tally.duplicate++
		return
	default:
		r.tally.reordered++
		return
	}
	r.nextPub[lane] = k + roamLanes
	// The border broker's own numbering must continue across hand-offs.
	if d.Item.Seq != r.brokerSeq[lane]+1 {
		r.tally.missing++
	}
	r.brokerSeq[lane] = d.Item.Seq
	r.arrived = append(r.arrived, at)
	if d.Replayed {
		r.replayed++
	}
	if r.caughtUp != nil && r.reached() {
		r.caughtUp <- at
		r.caughtUp = nil
	}
}

// reached reports whether every lane is past the hand-off target. Callers
// hold r.mu.
func (r *roamer) reached() bool {
	for lane := range r.target {
		if r.nextPub[lane] <= r.target[lane] {
			return false
		}
	}
	return true
}

// aim sets the hand-off target to "everything published so far" and returns
// the channel the completing arrival time is sent on (already filled when
// nothing is outstanding).
func (r *roamer) aim(published, now int64) <-chan int64 {
	ch := make(chan int64, 1)
	r.mu.Lock()
	defer r.mu.Unlock()
	for lane := range r.target {
		// Largest k < published with k % roamLanes == lane; negative when
		// the lane has had no publish yet.
		r.target[lane] = published - 1 - (published-1-int64(lane)+roamLanes)%roamLanes
	}
	if r.reached() {
		ch <- now
		return ch
	}
	r.caughtUp = ch
	return ch
}

// subscribe issues the lane subscriptions on link; as relocations, with the
// last sequence numbers seen, when epoch is positive.
func (r *roamer) subscribe(link *client, epoch uint64) error {
	r.mu.Lock()
	last := r.brokerSeq
	r.mu.Unlock()
	for lane := 0; lane < roamLanes; lane++ {
		sub := wire.Subscription{
			Filter:   mustFilter(laneFilterSrc(lane)),
			ID:       laneSubID(lane),
			IsMobile: true,
		}
		if epoch > 0 {
			sub.Relocate, sub.LastSeq, sub.RelocEpoch = true, last[lane], epoch
		}
		if err := link.Send(wire.NewSubscribe(sub)); err != nil {
			return err
		}
	}
	return nil
}

// roamSession is one set-up star with publisher, watcher and roamer attached.
type roamSession struct {
	ov      *overlay
	pub     *client
	watch   *client
	roam    *client    // the roamer's current link; nil while dark
	probes  [3]*client // probes[i], on leaf i, carries the marker that proves the leaf has seen the roamer leave
	fences  *fencer
	roamer  *roamer
	watcher *watcher
	strayed atomic.Int64 // deliveries to the probe clients, which subscribe to nothing
}

func (roamingWorkload) setup(p *params, clk clock, t *tally) (*roamSession, error) {
	ov, err := startOverlay(p, topoStar, "roaming_handoff")
	if err != nil {
		return nil, err
	}
	s := &roamSession{ov: ov, roamer: &roamer{clk: clk, tally: t},
		watcher: &watcher{clk: clk, subID: "all", tr: p.tracer}}
	s.watcher.seen.reserve(int(p.seconds*roamingRate) + 1024)
	for lane := range s.roamer.nextPub {
		s.roamer.nextPub[lane] = int64(lane)
	}
	fail := func(err error) (*roamSession, error) {
		s.close()
		return nil, err
	}
	if s.pub, s.fences, err = dialPublisher(ov.addr(0)); err != nil {
		return fail(err)
	}
	all := mustFilter(attrLane + " >= 0")
	if s.watch, err = dialClient(ov.addr(0), "watcher", s.watcher.onDeliver); err != nil {
		return fail(err)
	}
	if s.roam, err = dialClient(ov.addr(1), "roamer", s.roamer.onDeliver); err != nil {
		return fail(err)
	}
	for leaf := 1; leaf <= 2; leaf++ {
		if s.probes[leaf], err = dialClient(ov.addr(leaf), fmt.Sprintf("probe%d", leaf), func(*wire.Deliver) { s.strayed.Add(1) }); err != nil {
			return fail(err)
		}
	}
	if err := s.fences.install(s.roam); err != nil {
		return fail(err)
	}
	for _, c := range []*client{s.watch, s.roam} {
		if err := s.fences.admit(c); err != nil {
			return fail(err)
		}
	}
	if err := s.pub.Send(wire.NewAdvertise(wire.Subscription{Filter: all, ID: "adv"})); err != nil {
		return fail(err)
	}
	if err := s.watch.Send(wire.NewSubscribe(wire.Subscription{Filter: all, ID: "all"})); err != nil {
		return fail(err)
	}
	if err := s.roamer.subscribe(s.roam, 0); err != nil {
		return fail(err)
	}
	// The probes only ever publish, which needs no registration, but their
	// markers must find the fence subscription on their leaf, so these
	// fences repeat theirs until one comes back.
	for _, c := range []*client{s.watch, s.roam, s.probes[1], s.probes[2]} {
		if err := s.fences.roundTrip(c, attachRetry, setupTimeout, nil); err != nil {
			return fail(err)
		}
	}
	return s, nil
}

func (s *roamSession) close() {
	for _, l := range []*client{s.pub, s.watch, s.roam, s.probes[1], s.probes[2]} {
		if l != nil {
			_ = l.Close()
		}
	}
	s.ov.close()
}

func (w roamingWorkload) run(p *params) (*outcome, error) {
	clk := p.clock()
	out := newOutcome("roaming_handoff")
	t := &out.tally

	s, err := setUp(p, out, func() (*roamSession, error) { return w.setup(p, clk, t) })
	if err != nil {
		return nil, err
	}
	defer s.close()

	ramp := rampSeconds(p.seconds)
	interval := nsOf(1 / roamingRate)
	start := clk.now() + nsOf(0.01)
	slots := int64(p.seconds * roamingRate)
	end := start + slots*interval

	// Hand-off j closes the roamer's link at closeAt(j); the schedule is
	// fixed before the run, like the publisher's.
	period := int64(roamPeriod)
	closeAt := func(j int64) int64 { return start + j*period + period/2 }
	handoffs := (end - start - period/2 - int64(roamDark) - period/4) / period
	quiet := func(due int64) bool {
		j := (due - start) / period
		c := closeAt(j)
		return j < handoffs && due >= c-int64(roamQuietPre) && due < c+int64(roamQuietPost)
	}
	var gate sync.Mutex

	var seq atomic.Int64
	log := sendLog{tr: p.tracer}
	measured := newWindows(start+nsOf(ramp), end, streamWindow)
	cpu := sampleCPU(clk, s.ov, measured)

	// The roamer runs on a pinned goroutine of its own so that its closes
	// and dials hold their schedule as precisely as the publishes do.
	var handoffAt, handoffNs []int64 // start of the dial, and from there until caught up
	var reissued int
	roamErr := make(chan error, 1)
	resumeGC := holdGC() // until both pinned goroutines are done
	go func() {
		defer pinSender()()
		leaf := 1
		for j := int64(0); j < handoffs; j++ {
			// Shut the gate where the schedule's gap begins; from here no
			// publish is in progress and none starts. Nothing may be in
			// flight when the link goes down.
			clk.sleepUntil(closeAt(j) - int64(roamQuietPre))
			gate.Lock()
			select {
			case <-s.roamer.aim(seq.Load(), clk.now()):
			case <-time.After(handoffLimit):
				s.roamer.mu.Lock()
				t.timeouts++
				s.roamer.mu.Unlock()
			}
			clk.sleepUntil(closeAt(j))
			_ = s.roam.Close()
			s.roam = nil
			if err := s.fences.fence(s.probes[leaf], handoffLimit); err != nil {
				gate.Unlock()
				roamErr <- fmt.Errorf("hand-off %d: leaving leaf %d: %w", j+1, leaf, err)
				return
			}
			clk.sleepUntil(closeAt(j) + int64(roamQuietPost))
			gate.Unlock()
			clk.sleepUntil(closeAt(j) + int64(roamDark))

			leaf = 3 - leaf // 1 ↔ 2
			dialAt := clk.now()
			done := s.roamer.aim(seq.Load(), dialAt)
			link, err := dialClient(s.ov.addr(leaf), "roamer", s.roamer.onDeliver)
			if err != nil {
				roamErr <- fmt.Errorf("hand-off %d: %w", j+1, err)
				return
			}
			s.roam = link
			giveUp := time.After(handoffLimit)
			for caughtUp := false; !caughtUp; {
				if err := s.roamer.subscribe(link, uint64(j+1)); err != nil {
					roamErr <- fmt.Errorf("hand-off %d: %w", j+1, err)
					return
				}
				select {
				case at := <-done:
					caughtUp = true
					handoffAt, handoffNs = append(handoffAt, dialAt), append(handoffNs, at-dialAt)
				case <-time.After(roamReissue):
					reissued++
				case <-giveUp:
					caughtUp = true
					s.roamer.mu.Lock()
					t.timeouts++
					s.roamer.mu.Unlock()
				}
			}
		}
		roamErr <- nil
	}()

	unpin := pinSender()
	runOpenLoop(clk, s.pub, schedule{start: start, interval: interval, slots: slots, quiet: quiet, gate: &gate}, &seq, &log, roamPublish)
	unpin()
	err = <-roamErr
	resumeGC()
	if err != nil {
		return nil, err
	}
	published := seq.Load()

	// Drain: the watcher and every lane of the roamer must see the stream's
	// end.
	select {
	case <-s.roamer.aim(published, clk.now()):
	case <-time.After(time.Second):
	}
	s.watcher.await(published)
	if err := cpu.wait(); err != nil {
		return nil, err
	}
	rss, err := s.ov.rssPeakMB()
	if err != nil {
		return nil, err
	}
	_ = s.watch.Close()
	_ = s.roam.Close()

	// Oracle. The roamer checked its own deliveries as they arrived; what
	// is left is the stream's tail and the watcher.
	s.roamer.mu.Lock()
	for lane := 0; lane < roamLanes; lane++ {
		if next := s.roamer.nextPub[lane]; next < published {
			t.missing += (published - next + roamLanes - 1) / roamLanes
		}
	}
	roamArrived, replayed := s.roamer.arrived, s.roamer.replayed
	s.roamer.mu.Unlock()
	t.attempted = published + handoffs
	t.refused = log.errs
	t.unexpected += s.strayed.Load()
	due, lat := s.watcher.check(t, published, &log)

	out.latency(measured, due, lat)
	out.cpuPerDelivery(cpu, s.watcher.seen.at, roamArrived)
	out.set("broker_rss_peak_mb", rss, "MB")
	p50 := out.opTime("handoff", newWindows(measured.from, end, opWindow), handoffAt, handoffNs)
	if p50 > 0 {
		out.set("closed_loop_per_s", 1e3/p50, "1/s")
	}
	out.note("closed_loop_per_s is 1/handoff_p50: the hand-offs per second one roamer completes back to back, dark time left out")
	out.note("%d hand-offs (%d needed their subscriptions sent again), %d of %d roamer deliveries replayed",
		handoffs, reissued, replayed, len(roamArrived))
	out.generator(&log, roamingOffered, measured)
	return out, nil
}
