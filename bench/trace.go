package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/message"
)

// The trace pass measures each layer from outside: it replays a workload's
// seeded inputs through the layer's public functions in this process, times
// batches of calls, and records every batch as a span. The program itself is
// not instrumented — that is a later change — so what the layers' costs do
// not explain of the end-to-end latency is reported as one unattributed
// remainder.

// span is one timed interval: a batch of calls into a layer, or one publish
// of the traced end-to-end run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Op     int64  `json:"op"`     // batch number, or publisher sequence number
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	clk   clock
	mu    sync.Mutex
	spans []span
	roots map[int64]tracedPublish
}

// tracedPublish links a traced publish to its root span.
type tracedPublish struct {
	root int
	sent int64 // when the send call returned
}

func (t *tracer) add(name string, start, end int64, parent int, op int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// layerInputs are a workload's inputs in the form the layers take them.
type layerInputs struct {
	notifs  []message.Notification // as published, seq and ts included
	srcs    []string               // the workload's subscriptions as source text
	filters []filter.Filter        // the same, parsed
	// mobile is how many of the first filters are the roamer's; the rest
	// are plain subscriptions.
	mobile int
	// The path of one publish to the subscriber whose latency the workload
	// reports: brokers crossed and deliveries made at the last one.
	brokers    int
	deliveries float64
}

func newLayerInputs(name string, seed int64, short bool) (layerInputs, error) {
	const n = 1024
	var in layerInputs
	switch name {
	case "transit_chain", "selective_match":
		w := transitChain
		if name == "selective_match" {
			w = selectiveMatch
		}
		si := w.inputs(seed, short)
		in.srcs, in.filters, in.brokers = si.srcs, si.subs, len(w.topo.ids)
		var owed int
		for k := int64(0); k < n; k++ {
			in.notifs = append(in.notifs, si.build(k, k))
			owed += len(si.expect[k%int64(len(si.expect))])
		}
		in.deliveries = float64(owed) / n
	case "roaming_handoff":
		for lane := 0; lane < roamLanes; lane++ {
			in.srcs = append(in.srcs, laneFilterSrc(lane))
		}
		in.srcs = append(in.srcs, attrLane+" >= 0")
		in.mobile, in.brokers, in.deliveries = roamLanes, 1, 1
		for k := int64(0); k < n; k++ {
			in.notifs = append(in.notifs, roamPublish(k, k))
		}
	case "sub_churn":
		ci := newChurnInputs(seed, short)
		in.srcs = append(append(in.srcs, ci.srcs...), `tag = "bg"`)
		in.brokers, in.deliveries = len(topoChain.ids), 1
		for k := int64(0); k < n; k++ {
			in.notifs = append(in.notifs, ci.publish(k, k))
		}
	default:
		return in, fmt.Errorf("no layer inputs for workload %q", name)
	}
	if in.filters == nil {
		for _, src := range in.srcs {
			in.filters = append(in.filters, mustFilter(src))
		}
	}
	return in, nil
}

// maxBatchSpans is how many of a measurement's batches are kept as spans;
// all of them count towards its result.
const maxBatchSpans = 512

// measurement is the result of timing one kind of call.
type measurement struct {
	ns     float64 // per call: the median over batches of a batch's mean
	allocs float64 // heap allocations per call, whole measurement
	calls  int
}

// measure calls op(i) for i = 0, 1, … in batches of batch until budget is
// spent, recording each batch as a span under a root span of its own.
// between, if given, runs untimed after every batch.
func (t *tracer) measure(name string, budget time.Duration, batch int, op func(i int), between ...func()) measurement {
	root := t.add(name, t.clk.now(), 0, -1, 0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var perCall []float64
	i := 0
	deadline := t.clk.now() + int64(budget)
	for b := int64(0); b == 0 || t.clk.now() < deadline; b++ {
		t0 := t.clk.now()
		for end := i + batch; i < end; i++ {
			op(i)
		}
		t1 := t.clk.now()
		if b < maxBatchSpans {
			t.add(name, t0, t1, root, b)
		}
		perCall = append(perCall, float64(t1-t0)/float64(batch))
		for _, f := range between {
			f()
		}
	}
	runtime.ReadMemStats(&ms)
	t.mu.Lock()
	t.spans[root].End = t.clk.now()
	t.mu.Unlock()
	sort.Float64s(perCall)
	return measurement{ns: medianSorted(perCall), allocs: float64(ms.Mallocs-mallocs) / float64(i), calls: i}
}

// measureCycle alternates a pass of n calls a(0..n-1) with a pass of n calls
// b(0..n-1) until budget is spent — for operations that undo each other, such
// as add and remove. It ends after a b pass.
func (t *tracer) measureCycle(nameA, nameB string, budget time.Duration, n int, a, b func(i int)) (measurement, measurement) {
	rootA := t.add(nameA, t.clk.now(), 0, -1, 0)
	rootB := t.add(nameB, t.clk.now(), 0, -1, 0)
	var perA, perB []float64
	pass := func(name string, root int, cycle int64, op func(int)) float64 {
		t0 := t.clk.now()
		for i := 0; i < n; i++ {
			op(i)
		}
		t1 := t.clk.now()
		if cycle < maxBatchSpans {
			t.add(name, t0, t1, root, cycle)
		}
		return float64(t1-t0) / float64(n)
	}
	deadline := t.clk.now() + int64(budget)
	for c := int64(0); c == 0 || t.clk.now() < deadline; c++ {
		perA = append(perA, pass(nameA, rootA, c, a))
		perB = append(perB, pass(nameB, rootB, c, b))
	}
	t.mu.Lock()
	t.spans[rootA].End, t.spans[rootB].End = t.clk.now(), t.clk.now()
	t.mu.Unlock()
	sort.Float64s(perA)
	sort.Float64s(perB)
	return measurement{ns: medianSorted(perA), calls: n * len(perA)}, measurement{ns: medianSorted(perB), calls: n * len(perB)}
}

// sink keeps the compiler from discarding measured calls.
var sink atomic.Int64

// Spans of the traced end-to-end run: one publish in traceEvery gets a root
// span from its intended send time to its (last) delivery, with the
// generator's lateness, the send call and the time in the overlay as
// children.
const traceEvery = 16

func (t *tracer) published(k, due, callStart, callEnd int64) {
	if t == nil || k%traceEvery != 0 {
		return
	}
	root := t.add("publish", due, callEnd, -1, k)
	t.add("gen.lag", due, callStart, root, k)
	t.add("gen.send_call", callStart, callEnd, root, k)
	t.mu.Lock()
	if t.roots == nil {
		t.roots = make(map[int64]tracedPublish)
	}
	t.roots[k] = tracedPublish{root: root, sent: callEnd}
	t.mu.Unlock()
}

func (t *tracer) delivered(k, at int64) {
	if t == nil || k%traceEvery != 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.roots[k]
	if !ok {
		return
	}
	t.spans = append(t.spans, span{Name: "overlay", Start: p.sent, End: at, Parent: p.root, Op: k})
	if at > t.spans[p.root].End {
		t.spans[p.root].End = at
	}
}

// runTrace is the --trace 1 pass for one workload.
func runTrace(name string, p *params) (*outcome, error) {
	in, err := newLayerInputs(name, p.seed, p.short)
	if err != nil {
		return nil, err
	}
	out := newOutcome(name)
	tr := &tracer{clk: newClock()}
	// A fifth of the time goes to each of the two end-to-end runs, the rest
	// to the layers, shared equally between their measurements.
	slice := time.Duration(0.6 * p.seconds / 24 * float64(time.Second))

	tr.layers(&in, slice, out)
	if err := tr.transport(&in, slice, out); err != nil {
		return nil, err
	}
	if err := tr.broker(&in, slice, out); err != nil {
		return nil, err
	}
	if err := tr.mobility(&in, slice, out); err != nil {
		return nil, err
	}

	// End to end, untraced then traced, one set-up each.
	_, byName := workloads()
	q := *p
	q.setups, q.seconds = 1, 0.2*p.seconds
	plain, err := byName[name].run(&q)
	if err != nil {
		return nil, err
	}
	q.tracer = tr
	traced, err := byName[name].run(&q)
	if err != nil {
		return nil, err
	}
	out.tally = plain.tally.plus(traced.tally)
	out.invalid = append(plain.invalid, traced.invalid...)
	for _, m := range traced.metrics {
		if strings.HasPrefix(m.name, "gen.") {
			out.metrics = append(out.metrics, m)
		}
	}
	p50, _ := traced.get("deliver_p50_us")
	base, _ := plain.get("deliver_p50_us")
	for _, q := range []string{"p50", "p90", "p99"} {
		v, _ := traced.get("deliver_" + q + "_us")
		out.set("trace.deliver_"+q+"_us", v, "us")
	}
	if base > 0 {
		out.set("trace.overhead_pct", 100*(p50-base)/base, "%")
	}
	budget(&in, p50, out)

	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(p.outDir, "trace-"+name+".json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	out.note("%d spans written to %s", len(tr.spans), path)
	return out, nil
}
