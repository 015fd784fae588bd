package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/transport"
	"repro/internal/wire"
)

// clock is the generator's monotonic time base: every timestamp in a run —
// intended send times, the ts attribute, arrival times — is nanoseconds
// since its start.
type clock struct{ t0 time.Time }

func newClock() clock         { return clock{t0: time.Now()} }
func (c clock) now() int64    { return int64(time.Since(c.t0)) }
func sec(ns int64) float64    { return float64(ns) / 1e9 }
func nsOf(s float64) int64    { return int64(s * 1e9) }
func usOf(ns float64) float64 { return ns / 1e3 }

// pinSender locks the calling goroutine to its thread and makes that thread
// hold a schedule: 1 ns timer slack, so sleepUntil wakes within microseconds
// of its deadline (Go's own timers wake a parked thread through epoll with
// millisecond granularity, too coarse for a 10 000/s schedule), and the
// real-time FIFO class at its lowest priority, so that once awake it runs at
// once whatever else wants the CPU. Both are best effort: without the
// privilege the sender is an ordinary thread and gen.lag_p99_us says how
// well it coped. The returned function undoes everything; call it before the
// goroutine does anything but sleep and send.
func pinSender() func() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	setThreadPolicy(0, schedFIFO, 1)
	return func() {
		setThreadPolicy(0, schedOther, 0)
		runtime.UnlockOSThread()
	}
}

// holdGC collects now and keeps this process's collector off until the
// returned function is called; call it around every phase a pinned sender
// runs in. With a thread asleep in nanosleep behind the Go scheduler's back,
// a concurrent mark phase that otherwise takes half a millisecond was seen to
// take a second (gctrace: "0.023+997+0.018 ms clock"), and the link's writer
// goroutine did not run until it ended: in every other run the publishes of
// most of a second left the generator in one burst, always at the collection
// the heap had grown to 6.7 s into the run. An open-loop phase allocates well
// under a gigabyte.
func holdGC() func() {
	runtime.GC()
	percent := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(percent) }
}

const (
	schedOther = 0
	schedFIFO  = 1
	schedIdle  = 5
)

// setThreadPolicy sets the scheduling class of thread tid (0: the calling
// thread) and reports whether the kernel agreed.
func setThreadPolicy(tid, policy, priority int) bool {
	param := struct{ priority int32 }{int32(priority)}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), uintptr(policy), uintptr(unsafe.Pointer(&param)))
	return errno == 0
}

// sleepUntil blocks the calling thread in nanosleep until the clock reads
// due. Call it from a goroutine pinned with pinSender.
func (c clock) sleepUntil(due int64) {
	for {
		d := due - c.now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR (Go's preemption signal) just loops
	}
}

// windows cuts a measured phase into equal parts of about width, at least
// four. Every timing is computed per window, and what is reported is the
// quartile of the windows on the good side: the figure a quarter of the
// windows beat (goodQuartile). The machine's disturbances only ever slow the
// system down and last from a second to minutes — the brokers' CPU time per
// delivery sits at 86 µs for six seconds of a run and at 104 µs for the next
// five — so the fast side of a run's windows is where the system itself
// shows, and it stays put until three quarters of a run are disturbed, where
// a median moves when half is and a figure over the whole phase always does.
// The price: an effect confined to fewer than three quarters of the windows —
// a pause of a second every three, say — does not move these metrics; the
// windows are printed beside each figure, and the oracle and the whole-run
// tails see it. README.md has the measurements behind the choice.
type windows struct {
	from, width int64
	n           int
}

const (
	streamWindow = time.Second / 2 // for figures made of thousands of deliveries per second
	opWindow     = 2 * time.Second // for hand-offs and churn batches, ten a second
)

func newWindows(from, to int64, width time.Duration) windows {
	n := int((to - from) / int64(width))
	if n < 4 {
		n = 4
	}
	return windows{from: from, width: (to - from) / int64(n), n: n}
}

func (w windows) end() int64 { return w.from + int64(w.n)*w.width }

// of returns the window t falls into, -1 if none.
func (w windows) of(t int64) int {
	if t < w.from || t >= w.end() {
		return -1
	}
	return int((t - w.from) / w.width)
}

// dialClient connects a generator client to a broker and routes every
// delivery to onDeliver, which runs on the link's reader goroutine.
// Deliveries to the subscription admit uses as its attach probe are kept
// from onDeliver.
func dialClient(addr, id string, onDeliver func(*wire.Deliver)) (*client, error) {
	c := &client{id: id, admitted: make(chan struct{})}
	link, err := transport.DialTCPClient(addr, wire.ClientID(id), transport.ReceiverFunc(func(in transport.Inbound) {
		d := in.Msg.Deliver
		switch {
		case in.Msg.Type != wire.TypeDeliver || d == nil:
		case d.ID == helloSubID:
			c.once.Do(func() { close(c.admitted) })
		default:
			onDeliver(d)
		}
	}))
	if err != nil {
		return nil, err
	}
	c.TCPLink = link
	return c, nil
}

// client is one generator client's link.
type client struct {
	*transport.TCPLink
	id       string
	admitted chan struct{} // closed when the attach probe comes back
	once     sync.Once
}

// Attribute names shared by every workload's notifications.
const (
	attrSeq   = "seq"   // publisher sequence number, contiguous from 0
	attrTS    = "ts"    // intended send time, ns on the run's clock
	attrFence = "fence" // carried by fence markers only
	attrHello = "hello" // carried by attach probes only
)

const helloSubID = "hello"

func intAttr(n message.Notification, name string) (int64, bool) {
	v, ok := n.Get(name)
	if !ok || v.Kind() != message.KindInt {
		return 0, false
	}
	return v.IntVal(), true
}

// fencer proves that everything a client sent on its link has taken effect
// at every broker between that client and the publisher. The publisher's
// client holds one subscription to the fence attribute; a fence is a
// notification carrying it, published by the client being fenced on its own
// link. Links are FIFO and a broker handles one link's messages in order and
// forwards their consequences in order, so when the marker reaches the
// publisher's client, every operation sent before it on the same link has
// been applied by every broker on the way.
type fencer struct {
	pub *client

	mu      sync.Mutex
	n       int64
	waiting map[int64]chan struct{}
}

// The daemon does not acknowledge an attach, and it starts reading a new
// connection before it has registered the client: a subscription sent right
// after the handshake can overtake the registration and is then dropped
// without a trace. Publishing needs no registration, and a subscription the
// broker already holds is refused without effect, so set-up proves each
// client's registration by repetition: install repeats the publisher's fence
// subscription until a marker published by another client comes back, and
// admit repeats a probe subscription on a new client until a probe published
// by the publisher comes back. Only then are the workload's own
// subscriptions sent.
const attachRetry = time.Millisecond

// dialPublisher connects the publishing client of an overlay, which also
// holds the fence subscription. Call install once another client is
// connected.
func dialPublisher(addr string) (*client, *fencer, error) {
	f := &fencer{waiting: make(map[int64]chan struct{})}
	pub, err := dialClient(addr, "pub", f.delivered)
	if err != nil {
		return nil, nil, err
	}
	f.pub = pub
	return pub, f, nil
}

// install subscribes the publisher to fence markers, repeating the
// subscription and a marker published on via until the marker arrives.
func (f *fencer) install(via *client) error {
	fl, err := filter.Parse(attrFence + " >= 0")
	if err != nil {
		return err
	}
	sub := wire.NewSubscribe(wire.Subscription{Filter: fl, ID: "fence"})
	return f.roundTrip(via, attachRetry, setupTimeout, func() error { return f.pub.Send(sub) })
}

// admit proves that c's broker has registered it.
func (f *fencer) admit(c *client) error {
	fl, err := filter.Parse(fmt.Sprintf("%s = %q", attrHello, c.id))
	if err != nil {
		return err
	}
	sub := wire.Subscription{Filter: fl, ID: helloSubID}
	probe := wire.NewPublish(message.NewAttrs(message.Attr{Name: attrHello, Value: message.String(c.id)}))
	deadline := time.After(setupTimeout)
	tick := time.NewTicker(attachRetry)
	defer tick.Stop()
	for {
		if err := c.Send(wire.NewSubscribe(sub)); err != nil {
			return fmt.Errorf("admit %s: %w", c.id, err)
		}
		if err := f.pub.Send(probe); err != nil {
			return fmt.Errorf("admit %s: %w", c.id, err)
		}
		select {
		case <-c.admitted:
			return c.Send(wire.NewUnsubscribe(sub))
		case <-tick.C:
		case <-deadline:
			return fmt.Errorf("admit %s: no attach probe delivered within %v", c.id, setupTimeout)
		}
	}
}

// delivered is the publisher client's delivery callback.
func (f *fencer) delivered(d *wire.Deliver) {
	n, ok := intAttr(d.Item.Notif, attrFence)
	if !ok {
		return
	}
	f.mu.Lock()
	if ch, ok := f.waiting[n]; ok {
		close(ch)
		delete(f.waiting, n)
	}
	f.mu.Unlock()
}

var errFenceTimeout = errors.New("fence marker not delivered in time")

// fence publishes one marker on link and waits for it; a fence that takes
// longer than timeout fails. The fence subscription has been in place since
// install, so the marker cannot be dropped for want of a match.
func (f *fencer) fence(link *client, timeout time.Duration) error {
	return f.roundTrip(link, 0, timeout, nil)
}

// roundTrip publishes a marker on link and waits for the publisher to
// receive it. With a positive interval it runs again() and publishes the
// marker again every interval until then.
func (f *fencer) roundTrip(link *client, interval, timeout time.Duration, again func() error) error {
	f.mu.Lock()
	f.n++
	n := f.n
	ch := make(chan struct{})
	f.waiting[n] = ch
	f.mu.Unlock()

	marker := wire.NewPublish(message.NewAttrs(message.Attr{Name: attrFence, Value: message.Int(n)}))
	deadline := time.After(timeout)
	var tick <-chan time.Time
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		if again != nil {
			if err := again(); err != nil {
				return fmt.Errorf("fence: %w", err)
			}
		}
		if err := link.Send(marker); err != nil {
			return fmt.Errorf("fence marker: %w", err)
		}
		select {
		case <-ch:
			return nil
		case <-tick:
		case <-deadline:
			return errFenceTimeout
		}
	}
}

// schedule is a fixed-rate open-loop send schedule: slot i is due at
// start+i*interval whatever the system under test does. roaming_handoff
// leaves gaps in it: a slot for which quiet returns true is left out, and
// the sender holds gate around every publish, so that whoever else holds it
// knows that no publish is in progress and none will start.
type schedule struct {
	start    int64
	interval int64
	slots    int64
	quiet    func(due int64) bool
	gate     *sync.Mutex
}

// sendLog is what the sender records per publish, indexed by publisher
// sequence number; the receiver's records are matched against it after the
// run.
type sendLog struct {
	due  []int64 // intended send time
	lag  []int64 // actual start of the send call minus due
	call []int64 // duration of the send call
	errs int64   // publishes the client library refused
	tr   *tracer // nil unless this is the traced run
}

// runOpenLoop publishes build(seq, due) on link at every slot of s,
// numbering publishes from *seq, and appends to log. It must run on a
// goroutine pinned with pinSender.
func runOpenLoop(clk clock, link *client, s schedule, seq *atomic.Int64, log *sendLog,
	build func(seq, due int64) message.Notification) {
	for i := int64(0); i < s.slots; i++ {
		due := s.start + i*s.interval
		if s.quiet != nil && s.quiet(due) {
			continue
		}
		clk.sleepUntil(due)
		if s.gate != nil {
			s.gate.Lock()
		}
		k := seq.Load()
		n := build(k, due)
		t0 := clk.now()
		err := link.Send(wire.NewPublish(n))
		t1 := clk.now()
		if err != nil {
			log.errs++
		}
		log.due = append(log.due, due)
		log.lag = append(log.lag, t0-due)
		log.call = append(log.call, t1-t0)
		log.tr.published(k, due, t0, t1)
		seq.Store(k + 1) // published: visible to the roamer and the window accounting only after the send
		if s.gate != nil {
			s.gate.Unlock()
		}
	}
}

// arrivals is the receiver's record of one subscriber link: one row per
// delivery, appended by the link's reader goroutine and read after the run.
type arrivals struct {
	seq []int64 // publisher sequence number of the delivered notification
	sub []int32 // subscription index the delivery was addressed to
	at  []int64 // arrival time
}

func (a *arrivals) add(seq int64, sub int32, at int64) {
	a.seq = append(a.seq, seq)
	a.sub = append(a.sub, sub)
	a.at = append(a.at, at)
}

func (a *arrivals) reserve(n int) {
	a.seq = make([]int64, 0, n)
	a.sub = make([]int32, 0, n)
	a.at = make([]int64, 0, n)
}

// watcher is a static subscriber that must see a whole stream once and in
// publisher order: roaming_handoff's and sub_churn's latency is measured at
// one.
type watcher struct {
	clk     clock
	subID   wire.SubID
	tr      *tracer
	seen    arrivals     // owned by the link's reader goroutine until the link is closed
	n       atomic.Int64 // rows in seen
	strayed atomic.Int64 // deliveries for another subscription or without a seq
}

func (w *watcher) onDeliver(d *wire.Deliver) {
	at := w.clk.now()
	k, ok := intAttr(d.Item.Notif, attrSeq)
	if !ok || d.ID != w.subID {
		w.strayed.Add(1)
		return
	}
	w.seen.add(k, 0, at)
	w.n.Add(1)
	w.tr.delivered(k, at)
}

// await gives the stream's tail a second to arrive.
func (w *watcher) await(published int64) {
	for deadline := time.Now().Add(time.Second); w.n.Load() < published && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// check holds what the watcher saw to the stream of published notifications
// and returns, per delivery, the intended send time and the latency from it.
// Call it once the watcher's link is closed.
func (w *watcher) check(t *tally, published int64, log *sendLog) (due, lat []int64) {
	t.unexpected += w.strayed.Load()
	next := int64(0)
	for i, k := range w.seen.seq {
		switch {
		case k == next:
			next++
		case k > next:
			t.missing += k - next
			next = k + 1
		case k == next-1:
			t.duplicate++
		default:
			t.reordered++
		}
		if k < published {
			due = append(due, log.due[k])
			lat = append(lat, w.seen.at[i]-log.due[k])
		}
	}
	t.missing += published - next
	return due, lat
}

// tally counts operations and the ways they can fail; it becomes the
// result's attempted/failed pair.
type tally struct {
	attempted  int64
	missing    int64 // expected deliveries that never arrived
	duplicate  int64 // a subscription saw a publisher sequence number twice
	reordered  int64 // a subscription saw publisher sequence numbers go backwards
	unexpected int64 // a delivery no subscription should have received
	refused    int64 // publishes or control operations the client library rejected
	timeouts   int64 // hand-offs or fences not completed within 5 s
}

func (t tally) plus(u tally) tally {
	return tally{
		attempted: t.attempted + u.attempted, missing: t.missing + u.missing,
		duplicate: t.duplicate + u.duplicate, reordered: t.reordered + u.reordered,
		unexpected: t.unexpected + u.unexpected, refused: t.refused + u.refused,
		timeouts: t.timeouts + u.timeouts,
	}
}

func (t tally) failed() int64 {
	return t.missing + t.duplicate + t.reordered + t.unexpected + t.refused + t.timeouts
}

func (t tally) String() string {
	return fmt.Sprintf("attempted=%d failed=%d (missing=%d duplicate=%d reordered=%d unexpected=%d refused=%d timeouts=%d)",
		t.attempted, t.failed(), t.missing, t.duplicate, t.reordered, t.unexpected, t.refused, t.timeouts)
}
