package broker

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/wire"
)

// Parallel publish pipeline: when Options.Workers > 1, runs of consecutive
// publish tasks in a drained batch are matched on a pool of sharded worker
// goroutines instead of the run goroutine. Each worker matches against the
// same immutable routing-table snapshot (routing.Snapshot), so matching is
// lock-free and embarrassingly parallel; the run goroutine then applies
// the results — outbox writes and client deliveries — strictly in batch
// order, which makes the observable output byte-identical to the serial
// pipeline (see DESIGN.md, "Parallel publish pipeline").
//
// Jobs are sharded by publisher hop: all publishes of one publisher land
// on one worker and are matched in arrival order. With the ordered apply
// stage this is not needed for correctness — matching against an immutable
// snapshot is stateless — but it keeps each worker's cache hot on one
// publisher's stream and is the invariant a future out-of-order apply
// would rely on.

// minParallelRun is the smallest publish run worth dispatching to the
// pool; shorter runs are processed inline (identical output either way).
const minParallelRun = 4

// maxResultRetainCap bounds the per-slot hop/delivery slice capacity the
// pool keeps between runs; larger ones (grown by a pathological fan-out)
// are dropped and reallocated on demand.
const maxResultRetainCap = 1 << 12

// matchResult is one publish's routing decision, produced by a worker and
// consumed by the run goroutine's apply stage: the broker hops to forward
// to and the local subscriptions to deliver to, both deduplicated and in
// match (entry-key) order — exactly the order the serial path emits.
type matchResult struct {
	hops       []wire.Hop
	deliveries []subRef
}

// shardRun is the unit handed to one worker: the indices of this shard's
// jobs within the current run. snap/run/results are shared across shards;
// every worker writes only its own jobs' result slots.
type shardRun struct {
	snap    *routing.Snapshot
	run     []task
	results []matchResult
	idxs    []int32
	wg      *sync.WaitGroup
}

// workerPool owns the matching workers. It is created at New when
// Options.Workers > 1 and its goroutines run from Start until Close.
type workerPool struct {
	chans []chan *shardRun
	runs  []shardRun // one reusable shardRun per worker
	wg    sync.WaitGroup
	done  sync.WaitGroup

	results []matchResult // reusable per-run result slots

	// Observability, read by Stats through the broker. inflight covers a
	// whole dispatched run (raised before dispatch, dropped after the
	// barrier), so it is zero whenever the run goroutine is between runs —
	// including whenever a Stats closure observes it. It exists so an
	// asynchronous apply stage could be added without changing Stats, at
	// the cost of two atomic ops per run (not per job).
	inflight   metrics.Gauge        // jobs dispatched in the current run
	shardDepth metrics.Distribution // jobs per dispatched shard
	dispatches uint64               // parallel runs dispatched (run goroutine only)
	jobs       uint64               // publishes matched in parallel (run goroutine only)
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{
		chans: make([]chan *shardRun, n),
		runs:  make([]shardRun, n),
	}
	for i := range p.chans {
		p.chans[i] = make(chan *shardRun, 1)
	}
	return p
}

// start launches the worker goroutines.
func (p *workerPool) start() {
	for i := range p.chans {
		p.done.Add(1)
		go p.worker(p.chans[i])
	}
}

// stop shuts the workers down and waits for them to exit. Only called
// after the run goroutine has finished (no dispatch can be in flight).
func (p *workerPool) stop() {
	for _, c := range p.chans {
		close(c)
	}
	p.done.Wait()
}

// match dispatches one publish run to the pool and blocks until every
// job's result slot is filled. Called from the run goroutine only; the
// returned slice is owned by the pool and valid until the next call.
func (p *workerPool) match(snap *routing.Snapshot, run []task) []matchResult {
	if cap(p.results) < len(run) {
		p.results = make([]matchResult, len(run))
	}
	res := p.results[:len(run)]
	// Shed result slices a past run grew far beyond any plausible
	// fan-out — the worker-side counterpart of the serial path's scratch
	// shedding (the previous run's results are fully applied by now).
	for i := range res {
		if cap(res[i].hops) > maxResultRetainCap {
			res[i].hops = nil
		}
		if cap(res[i].deliveries) > maxResultRetainCap {
			res[i].deliveries = nil
		}
	}
	for i := range p.runs {
		p.runs[i].idxs = p.runs[i].idxs[:0]
	}
	for i := range run {
		sh := hopShard(run[i].in.From, len(p.runs))
		p.runs[sh].idxs = append(p.runs[sh].idxs, int32(i))
	}
	p.inflight.Add(int64(len(run)))
	p.dispatches++
	p.jobs += uint64(len(run))
	for i := range p.runs {
		if len(p.runs[i].idxs) == 0 {
			continue
		}
		p.wg.Add(1)
		p.runs[i].snap, p.runs[i].run, p.runs[i].results, p.runs[i].wg = snap, run, res, &p.wg
		p.shardDepth.Observe(uint64(len(p.runs[i].idxs)))
		p.chans[i] <- &p.runs[i]
	}
	p.wg.Wait()
	p.inflight.Add(-int64(len(run)))
	// Drop the run's references so the pool does not pin a superseded
	// snapshot or the drained batch's tasks between runs (idle shards
	// would otherwise keep them alive indefinitely). The result slots —
	// still being read by the caller — are shed at the top of the next
	// call instead.
	for i := range p.runs {
		p.runs[i].snap, p.runs[i].run, p.runs[i].results, p.runs[i].wg = nil, nil, nil, nil
	}
	return res
}

// worker is one matching goroutine: it consumes shard dispatches, matches
// each assigned publish against the run's snapshot, and fills the result
// slots. All state it touches is either immutable (snapshot, notification)
// or exclusively its own (scratch, its jobs' result slots).
func (p *workerPool) worker(ch chan *shardRun) {
	defer p.done.Done()
	var sc workerScratch
	sc.subs = make(map[subRef]uint64)
	visit := sc.visitEntry // bind once: no per-job closure allocation
	for sr := range ch {
		for _, i := range sr.idxs {
			t := &sr.run[i]
			res := &sr.results[i]
			res.hops = res.hops[:0]
			res.deliveries = res.deliveries[:0]
			// Shed the epoch-stamped dedup map grown far beyond any live
			// fan-out, mirroring the serial path's pubScratch bound.
			if len(sc.subs) > pubScratchShedSize {
				clear(sc.subs)
			}
			sc.epoch++
			sc.res = res
			sr.snap.EachRoute(*t.in.Msg.Notif, t.in.From, visit)
		}
		sr.wg.Done()
	}
}

// workerScratch is one worker's per-publish dedup state: an epoch-stamped
// map, reused across every job the worker ever matches (the same trick as
// the serial path's pubScratch).
type workerScratch struct {
	epoch uint64
	subs  map[subRef]uint64
	res   *matchResult
}

// visitEntry records one table row EachRoute visits into the current
// result slot, preserving first-occurrence (entry-key) order per
// subscription — the same dedup the serial visitPublishEntry applies. A
// broker hop is visited once.
func (sc *workerScratch) visitEntry(e *routing.Entry) {
	if e.Hop.IsClient() {
		ref := subRef{client: e.Client, id: e.SubID}
		if sc.subs[ref] == sc.epoch {
			return
		}
		sc.subs[ref] = sc.epoch
		sc.res.deliveries = append(sc.res.deliveries, ref)
		return
	}
	sc.res.hops = append(sc.res.hops, e.Hop)
}

// hopShard maps a hop onto a shard (FNV-1a over the hop identity). The
// matching pool shards publishers by their arrival hop; the egress pool
// reuses it to pin each outgoing link to one writer shard — in both
// cases the property that matters is that one hop always lands on the
// same shard.
func hopShard(h wire.Hop, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	hash := uint64(offset64)
	for i := 0; i < len(h.Client); i++ {
		hash ^= uint64(h.Client[i])
		hash *= prime64
	}
	hash ^= '/'
	hash *= prime64
	for i := 0; i < len(h.Broker); i++ {
		hash ^= uint64(h.Broker[i])
		hash *= prime64
	}
	return int(hash % uint64(n))
}
