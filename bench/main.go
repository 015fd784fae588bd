// Command bench is the repository's end-to-end benchmark: it builds
// cmd/rebeca-broker, runs small overlays of it as daemon processes on
// loopback TCP, drives them through the client library from this one
// generator process, and checks every delivery against an oracle. README.md
// in this directory describes the protocol and every metric.
//
// BENCHMARK.json's command runs one workload and prints one JSON result as
// the last line:
//
//	bash bench/run.sh --workload transit_chain --seed 1 --seconds 20 --trace 0
//
// Without --workload it runs all four; with -repeat K it runs them K times
// on consecutive seeds and prints each metric's median, quartiles and spread
// against its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// params are the knobs of one run of one workload.
type params struct {
	seed    int64
	seconds float64 // measuring time
	short   bool    // smoke-test scale: small inputs; only smoke_test.go sets it
	setups  int     // overlay set-ups per run; setup_s is their median
	broker  string  // path of the rebeca-broker binary
	// brokerCPU is the CPU the brokers are confined to; nil lets them float.
	brokerCPU *cpuMask
	outDir    string  // daemon logs and trace files
	tracer    *tracer // set for the traced end-to-end run of the trace pass
	// afterOpen, which only smoke_test.go sets, runs between a stream
	// workload's open-loop and closed-loop phases.
	afterOpen func(*overlay)
}

// clock returns the run's time base: the tracer's for the traced run, so that
// its spans and the layers' share one, a fresh one otherwise.
func (p *params) clock() clock {
	if p.tracer != nil {
		return p.tracer.clk
	}
	return newClock()
}

// workload is one of the benchmark's traffic mixes.
type workload interface {
	run(p *params) (*outcome, error)
}

func workloads() (names []string, byName map[string]workload) {
	names = []string{"transit_chain", "selective_match", "roaming_handoff", "sub_churn"}
	byName = map[string]workload{
		"transit_chain":   transitChain,
		"selective_match": selectiveMatch,
		"roaming_handoff": roamingHandoff,
		"sub_churn":       subChurn,
	}
	return names, byName
}

// setUp runs setup p.setups times, timing each into out and closing every
// session but the last, which it returns: setup_s is the median of several
// set-ups, and the last overlay is the one measured.
func setUp[S interface{ close() }](p *params, out *outcome, setup func() (S, error)) (S, error) {
	var s S
	for i := 0; i < p.setups; i++ {
		if i > 0 {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = setup(); err != nil {
			return s, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	return s, nil
}

// setupTimeout bounds how long a set-up waits for its subscriptions to take
// effect across the overlay.
const setupTimeout = 60 * time.Second

// rampSeconds is how much of the start of each phase is left out of the
// measurements, so caches, pools and TCP windows are warm.
func rampSeconds(seconds float64) float64 {
	if r := 0.1 * seconds; r < 0.5 {
		return r
	}
	return 0.5
}

// cpuSeries is the brokers' CPU time read at every window boundary, from a
// goroutine of its own so that the sender's schedule is not disturbed.
type cpuSeries struct {
	at   []int64   // when each reading was taken
	cpu  []float64 // cumulative CPU seconds at that moment
	done chan error
}

func sampleCPU(clk clock, ov *overlay, w windows) *cpuSeries {
	c := &cpuSeries{done: make(chan error, 1)}
	go func() {
		for i := 0; i <= w.n; i++ {
			time.Sleep(time.Duration(w.from + int64(i)*w.width - clk.now()))
			v, err := ov.cpuSeconds()
			if err != nil {
				c.done <- err
				return
			}
			c.at = append(c.at, clk.now())
			c.cpu = append(c.cpu, v)
		}
		c.done <- nil
	}()
	return c
}

// wait returns once the last reading has been taken.
func (c *cpuSeries) wait() error { return <-c.done }

// busy is the CPU time used between the first and the last reading as a share
// of the time between them.
func (c *cpuSeries) busy() float64 {
	last := len(c.at) - 1
	return (c.cpu[last] - c.cpu[0]) / sec(c.at[last]-c.at[0])
}

// benchmarkFile is the part of BENCHMARK.json the driver reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readBenchmarkFile reads BENCHMARK.json from the repository root, which is
// the working directory of every run (run.sh sees to it).
func readBenchmarkFile() (*benchmarkFile, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// provenance is what a reader needs to judge whether two results are
// comparable.
func provenance(seed int64, seconds float64, awake int) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(raw))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpus_awake": awake,
		"go":         runtime.Version(),
		"commit":     commit,
		"kernel":     kernel,
		"seed":       seed,
		"seconds":    seconds,
		"rates_per_s": map[string]float64{
			"transit_chain":   transitChain.rate,
			"selective_match": selectiveMatch.rate,
			"roaming_handoff": roamingOffered,
			"sub_churn":       churnStreamRate,
		},
	}
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all four)")
		seed    = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = fs.Float64("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
		trace   = fs.Int("trace", 0, "1: run the per-layer trace pass instead of the end-to-end run")
		repeat  = fs.Int("repeat", 0, "run the suite this many times on consecutive seeds and print each metric's spread")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names, byName := workloads()
	if *name != "" {
		if _, ok := byName[*name]; !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
			return 2
		}
		names = []string{*name}
	}
	spec, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}

	// The sender sleeps in a system call the Go scheduler does not expect to
	// block; with a single P everything else would wait for it to be retaken.
	if runtime.GOMAXPROCS(0) < 2 {
		runtime.GOMAXPROCS(2)
	}
	cpus := allowedCPUs()
	brokerCPU := isolateGenerator(cpus)
	awake, sleep := keepAwake(cpus)
	defer sleep()

	// The generator's own collector would add to the latencies it measures;
	// its heap is a few tens of megabytes, so let it grow.
	debug.SetGCPercent(400)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killLiveChildren()
		os.Exit(130)
	}()

	p := &params{seed: *seed, seconds: *seconds, setups: 3, brokerCPU: brokerCPU, outDir: filepath.Join("bench", "out")}
	if p.broker, err = buildBroker(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("# provenance %s\n", mustJSON(provenance(*seed, *seconds, awake)))

	runOne := func(name string, seed int64) (*outcome, error) {
		q := *p
		q.seed = seed
		var out *outcome
		var err error
		if *trace == 1 {
			out, err = runTrace(name, &q)
		} else {
			if out, err = byName[name].run(&q); err == nil {
				out.finish()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		var b strings.Builder
		out.print(&b)
		fmt.Print(b.String())
		return out, nil
	}

	if *repeat > 0 {
		return runRepeat(spec, names, *seed, *repeat, runOne)
	}
	ok := true
	var last *outcome
	for _, n := range names {
		out, err := runOne(n, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		ok = ok && out.tally.failed() == 0
		last = out
	}
	if *name != "" {
		// The driver's protocol: one result object as the last line.
		fmt.Println(resultLine(spec, last, *trace == 1))
	} else {
		fmt.Println(mustJSON(map[string]any{"correct": ok, "claim": nil}))
	}
	if !ok {
		return 1
	}
	return 0
}

// resultLine renders a run as the driver expects it: every end-to-end metric
// of BENCHMARK.json for an untraced run, every per-layer metric for a traced
// one.
func resultLine(spec *benchmarkFile, o *outcome, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	add := func(name, unit string) {
		if v, ok := o.get(name); ok {
			metrics[name] = mv{Value: v, Unit: unit}
		}
	}
	if traced {
		for _, m := range spec.PerLayer {
			add(m.Name, m.Unit)
		}
	} else {
		for _, m := range spec.EndToEnd {
			add(m.Name, m.Unit)
		}
	}
	return mustJSON(map[string]any{
		"correct":   o.tally.failed() == 0,
		"attempted": o.tally.attempted,
		"failed":    o.tally.failed(),
		"metrics":   metrics,
	})
}

func mustJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings and numbers are passed in
	}
	return string(raw)
}

// runRepeat runs every named workload n times on seeds seed, seed+1, … and
// prints, per workload and end-to-end metric, the median, the quartiles and
// the interquartile spread as a share of the median next to the metric's
// bound. Runs the generator marked invalid are listed and left out.
func runRepeat(spec *benchmarkFile, names []string, seed int64, n int, runOne func(string, int64) (*outcome, error)) int {
	values := make(map[string]map[string][]float64) // workload → metric → one value per valid run
	ok := true
	for i := 0; i < n; i++ {
		for _, name := range names {
			out, err := runOne(name, seed+int64(i))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			ok = ok && out.tally.failed() == 0
			if len(out.invalid) > 0 {
				fmt.Printf("# run %d of %s left out of the summary: %s\n", i+1, name, strings.Join(out.invalid, "; "))
				continue
			}
			if values[name] == nil {
				values[name] = make(map[string][]float64)
			}
			for _, m := range out.metrics {
				values[name][m.name] = append(values[name][m.name], m.value)
			}
		}
	}
	fmt.Printf("# %-16s %-28s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	within := true
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			vs := values[name][m.Name]
			q1, q2, q3 := quartiles(vs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			flag := ""
			if spread > m.Bound {
				flag = "  > bound"
				within = false
			}
			fmt.Printf("  %-16s %-28s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				name, m.Name, q1, q2, q3, 100*spread, 100*m.Bound, flag)
		}
	}
	fmt.Println(mustJSON(map[string]any{"correct": ok, "runs": n, "spreads_within_bounds": within, "claim": nil}))
	if !ok {
		return 1
	}
	return 0
}
