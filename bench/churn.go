package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/wire"
)

// sub_churn: the routing layer written while it is read. A background
// stream crosses the chain b1–b2–b3 to a static watcher at a fixed rate,
// while a churn client on b3 subscribes and unsubscribes range filters in
// fenced batches, one batch per churnPeriod. Every churn filter carries tag = "c" and an
// interval on x; every stream notification carries tag = "bg" and an x, so
// the brokers' match index walks the churned intervals for each notification
// but none ever matches, and the oracle stays exact while the table is in
// flux. About half the pool's filters lie inside another one, so the
// covering control plane both suppresses and re-exposes filters as the live
// set turns over.
const (
	churnStreamRate = 2000.0 // background publishes per second
	churnPool       = 5000   // filters the churn client draws from
	churnBatch      = 20     // operations between two fences, half subscribes and half unsubscribes
	churnPeriod     = 100 * time.Millisecond
	churnDomain     = 100000 // x is drawn from [0, churnDomain)
	fenceLimit      = 5 * time.Second
)

var subChurn workload = churnWorkload{}

type churnWorkload struct{}

// churnInputs are the seeded filter pool and the stream's x values.
type churnInputs struct {
	srcs    []string // filters as source text
	filters []filter.Filter
	xs      []int64
}

func newChurnInputs(seed int64, short bool) churnInputs {
	pool := churnPool
	if short {
		pool = 600
	}
	rng := rand.New(rand.NewSource(seed))
	in := churnInputs{srcs: make([]string, pool), filters: make([]filter.Filter, pool), xs: make([]int64, 4096)}
	type iv struct{ lo, hi int }
	wide := make([]iv, pool/2)
	for i := range wide {
		w := 1000 + rng.Intn(4000)
		lo := rng.Intn(churnDomain - w)
		wide[i] = iv{lo, lo + w}
		in.srcs[i] = churnFilterSrc(lo, lo+w)
	}
	for i := pool / 2; i < pool; i++ {
		// A narrow interval inside a wide one: covered while that one is
		// live.
		outer := wide[rng.Intn(len(wide))]
		w := 10 + rng.Intn((outer.hi-outer.lo)/2)
		lo := outer.lo + rng.Intn(outer.hi-outer.lo-w)
		in.srcs[i] = churnFilterSrc(lo, lo+w)
	}
	for i, src := range in.srcs {
		in.filters[i] = mustFilter(src)
	}
	for i := range in.xs {
		in.xs[i] = int64(rng.Intn(churnDomain))
	}
	return in
}

func churnFilterSrc(lo, hi int) string {
	return fmt.Sprintf(`tag = "c" && x in [%d, %d]`, lo, hi)
}

// publish returns stream notification k.
func (in *churnInputs) publish(k, due int64) message.Notification {
	return message.NewAttrs(
		message.Attr{Name: "tag", Value: message.String("bg")},
		message.Attr{Name: "x", Value: message.Int(in.xs[k%int64(len(in.xs))])},
		message.Attr{Name: attrSeq, Value: message.Int(k)},
		message.Attr{Name: attrTS, Value: message.Int(due)})
}

// churnSession is one set-up chain with publisher, watcher and churn client.
type churnSession struct {
	ov      *overlay
	pub     *client
	watch   *client
	churn   *client
	fences  *fencer
	live    []bool // which pool filters the churn client currently holds
	nLive   int
	watcher *watcher
	strayed atomic.Int64 // deliveries to the churn client, whose filters match nothing published
}

func (churnWorkload) setup(p *params, in *churnInputs, clk clock, rng *rand.Rand) (*churnSession, error) {
	ov, err := startOverlay(p, topoChain, "sub_churn")
	if err != nil {
		return nil, err
	}
	s := &churnSession{ov: ov, live: make([]bool, len(in.filters)),
		watcher: &watcher{clk: clk, subID: "bg", tr: p.tracer}}
	s.watcher.seen.reserve(int(p.seconds*churnStreamRate) + 1024)
	fail := func(err error) (*churnSession, error) {
		s.close()
		return nil, err
	}
	if s.pub, s.fences, err = dialPublisher(ov.addr(0)); err != nil {
		return fail(err)
	}
	if s.watch, err = dialClient(ov.addr(2), "watcher", s.watcher.onDeliver); err != nil {
		return fail(err)
	}
	if s.churn, err = dialClient(ov.addr(2), "churn", func(*wire.Deliver) { s.strayed.Add(1) }); err != nil {
		return fail(err)
	}
	if err := s.fences.install(s.watch); err != nil {
		return fail(err)
	}
	for _, c := range []*client{s.watch, s.churn} {
		if err := s.fences.admit(c); err != nil {
			return fail(err)
		}
	}
	if err := s.watch.Send(wire.NewSubscribe(wire.Subscription{Filter: mustFilter(`tag = "bg"`), ID: "bg"})); err != nil {
		return fail(err)
	}
	// Prefill half the pool.
	for _, i := range rng.Perm(len(in.filters))[:len(in.filters)/2] {
		if err := s.toggle(in, i); err != nil {
			return fail(err)
		}
	}
	for _, c := range []*client{s.watch, s.churn} {
		if err := s.fences.fence(c, setupTimeout); err != nil {
			return fail(err)
		}
	}
	return s, nil
}

// toggle subscribes pool filter i if the churn client does not hold it and
// unsubscribes it if it does.
func (s *churnSession) toggle(in *churnInputs, i int) error {
	sub := wire.Subscription{Filter: in.filters[i], ID: subID(i)}
	msg := wire.NewSubscribe(sub)
	if s.live[i] {
		msg = wire.NewUnsubscribe(sub)
		s.nLive--
	} else {
		s.nLive++
	}
	s.live[i] = !s.live[i]
	return s.churn.Send(msg)
}

// pick returns n distinct pool indices whose live state is want.
func (s *churnSession) pick(rng *rand.Rand, n int, want bool) []int {
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for len(out) < n {
		i := rng.Intn(len(s.live))
		if s.live[i] == want && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

func (s *churnSession) close() {
	for _, l := range []*client{s.pub, s.watch, s.churn} {
		if l != nil {
			_ = l.Close()
		}
	}
	s.ov.close()
}

func (w churnWorkload) run(p *params) (*outcome, error) {
	in := newChurnInputs(p.seed, p.short)
	clk := p.clock()
	out := newOutcome("sub_churn")
	t := &out.tally

	var rng *rand.Rand
	s, err := setUp(p, out, func() (*churnSession, error) {
		rng = rand.New(rand.NewSource(p.seed + 1)) // every set-up prefills the same half
		return w.setup(p, &in, clk, rng)
	})
	if err != nil {
		return nil, err
	}
	defer s.close()

	ramp := rampSeconds(p.seconds)
	interval := nsOf(1 / churnStreamRate)
	start := clk.now() + nsOf(0.01)
	slots := int64(p.seconds * churnStreamRate)
	end := start + slots*interval
	measured := newWindows(start+nsOf(ramp), end, streamWindow)
	cpu := sampleCPU(clk, s.ov, measured)

	// Churn: every churnPeriod a batch of subscribes and unsubscribes, then
	// a fence, timed from the first send to the fence's return — when
	// all three brokers are proven to have applied the batch. One batch is
	// outstanding at a time and a late one delays the next, so this part is
	// closed loop; the period only keeps the churn from saturating brokers
	// that the background stream is measured on.
	batch := churnBatch
	var batchAt, batchNs []int64 // first send of a batch, and from there until its fence returned
	var churnOps, fenceTimeouts, churnRefused int64
	churnErr := make(chan error, 1)
	go func() {
		for due := start; due+int64(churnPeriod) < end; due += int64(churnPeriod) {
			time.Sleep(time.Duration(due - clk.now()))
			t0 := clk.now()
			ops := append(s.pick(rng, batch/2, false), s.pick(rng, batch/2, true)...)
			for _, i := range ops {
				if err := s.toggle(&in, i); err != nil {
					churnRefused++
				}
			}
			churnOps += int64(batch)
			switch err := s.fences.fence(s.churn, fenceLimit); err {
			case nil:
				batchAt, batchNs = append(batchAt, t0), append(batchNs, clk.now()-t0)
			case errFenceTimeout:
				fenceTimeouts++
			default:
				churnErr <- err
				return
			}
		}
		churnErr <- nil
	}()

	var seq atomic.Int64
	log := sendLog{tr: p.tracer}
	unpin, resumeGC := pinSender(), holdGC()
	runOpenLoop(clk, s.pub, schedule{start: start, interval: interval, slots: slots}, &seq, &log, in.publish)
	unpin()
	resumeGC()
	if err := <-churnErr; err != nil {
		return nil, err
	}
	published := seq.Load()
	s.watcher.await(published)
	if err := cpu.wait(); err != nil {
		return nil, err
	}
	rss, err := s.ov.rssPeakMB()
	if err != nil {
		return nil, err
	}
	_ = s.watch.Close()
	_ = s.churn.Close()

	// Oracle: the watcher sees the whole stream once, in order; the churn
	// client, whose filters match nothing that is published, sees nothing.
	t.attempted = published + churnOps
	t.refused = log.errs + churnRefused
	t.timeouts = fenceTimeouts
	t.unexpected = s.strayed.Load()
	due, lat := s.watcher.check(t, published, &log)

	out.latency(measured, due, lat)
	out.cpuPerDelivery(cpu, s.watcher.seen.at)
	out.set("broker_rss_peak_mb", rss, "MB")
	p50 := out.opTime("churn_batch", newWindows(measured.from, end, opWindow), batchAt, batchNs)
	if p50 > 0 {
		out.set("closed_loop_per_s", float64(batch)*1e3/p50, "1/s")
	}
	out.note("closed_loop_per_s is %d operations / churn_batch_p50: the fenced subscribe and unsubscribe operations per second one client completes back to back",
		batch)
	out.note("%d of %d pool filters live at the end", s.nLive, len(in.filters))
	out.generator(&log, churnStreamRate, measured)
	return out, nil
}
