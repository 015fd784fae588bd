package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestSmoke runs every workload, and the trace pass on every workload, at
// smoke-test scale against real daemon processes: small inputs, one set-up,
// about a second of measuring each. It checks that the oracle finds nothing
// wrong and that every metric BENCHMARK.json promises is reported; the
// numbers themselves mean nothing at this scale.
func TestSmoke(t *testing.T) {
	// Like run.sh: everything runs from the repository root.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.Chdir("bench") }()
	broker, err := buildBroker()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	names, byName := workloads()
	for _, name := range names {
		p := &params{seed: 1, seconds: 1, short: true, setups: 1, broker: broker,
			outDir: filepath.Join(t.TempDir(), "out")}
		t.Run(name, func(t *testing.T) {
			out, err := byName[name].run(p)
			if err != nil {
				t.Fatal(err)
			}
			out.finish()
			if out.tally.failed() != 0 || out.tally.attempted == 0 {
				t.Errorf("oracle: %s", out.tally)
			}
			for _, m := range spec.EndToEnd {
				if v, ok := out.get(m.Name); !ok || v <= 0 || math.IsNaN(v) {
					t.Errorf("end-to-end metric %s = %v (reported: %v)", m.Name, v, ok)
				}
			}
			checkResultLine(t, resultLine(spec, out, false), len(spec.EndToEnd))
		})
		t.Run(name+"/trace", func(t *testing.T) {
			q := *p
			q.seconds = 3
			out, err := runTrace(name, &q)
			if err != nil {
				t.Fatal(err)
			}
			if out.tally.failed() != 0 {
				t.Errorf("oracle: %s", out.tally)
			}
			for _, m := range spec.PerLayer {
				if v, ok := out.get(m.Name); !ok || math.IsNaN(v) {
					t.Errorf("per-layer metric %s = %v (reported: %v)", m.Name, v, ok)
				}
			}
			checkResultLine(t, resultLine(spec, out, true), len(spec.PerLayer))
			if _, err := os.Stat(filepath.Join(q.outDir, "trace-"+name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDeadBrokerEndsRun kills the middle broker of transit_chain before the
// saturation phase, whose publishes then hold their window tokens for good:
// the run must still end, and must not pass.
func TestDeadBrokerEndsRun(t *testing.T) {
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.Chdir("bench") }()
	broker, err := buildBroker()
	if err != nil {
		t.Fatal(err)
	}
	p := &params{seed: 1, seconds: 1, short: true, setups: 1, broker: broker,
		outDir: filepath.Join(t.TempDir(), "out"),
		afterOpen: func(ov *overlay) {
			_ = syscall.Kill(ov.procs[1].cmd.Process.Pid, syscall.SIGKILL)
		}}
	type result struct {
		out *outcome
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := transitChain.run(p)
		done <- result{out, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Logf("ended with: %v", r.err)
		} else if t.Logf("ended with: %s", r.out.tally); r.out.tally.failed() == 0 {
			t.Error("a run that lost a broker passed")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the run did not end")
	}
}

// checkResultLine holds the last line of a driver-mode run to the contract:
// exactly four keys, and one value/unit pair per promised metric.
func checkResultLine(t *testing.T, line string, metrics int) {
	t.Helper()
	var r struct {
		Correct   *bool `json:"correct"`
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &keys); err != nil {
		t.Fatalf("%v in %s", err, line)
	}
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatalf("%v in %s", err, line)
	}
	if len(keys) != 4 || r.Correct == nil || r.Attempted == nil || r.Failed == nil {
		t.Errorf("result keys: %s", line)
	}
	if len(r.Metrics) != metrics {
		t.Errorf("result has %d metrics, want %d: %s", len(r.Metrics), metrics, line)
	}
	for name, m := range r.Metrics {
		if m.Value == nil || m.Unit == "" {
			t.Errorf("metric %s lacks value or unit", name)
		}
	}
}

// TestQuartiles pins the spread computation to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
