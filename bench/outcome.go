package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// metric is one measured value with its unit and, for timings, the number
// of samples behind it and the per-window values it is the good-side quartile
// of.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	windows []float64
}

// outcome is everything one run of one workload produced.
type outcome struct {
	workload string
	setups   []float64 // seconds, one per set-up
	tally    tally
	metrics  []metric
	notes    []string
	invalid  []string // why the generator, not the system, may have shaped the numbers
}

func newOutcome(workload string) *outcome { return &outcome{workload: workload} }

func (o *outcome) set(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name: name, value: value, unit: unit})
}

func (o *outcome) setSampled(name string, value float64, unit string, samples int) {
	o.metrics = append(o.metrics, metric{name: name, value: value, unit: unit, samples: samples})
}

// setWindowed reports the good-side quartile of a phase's per-window figures.
func (o *outcome) setWindowed(name string, perWindow []float64, higherIsBetter bool, unit string, samples int) {
	o.metrics = append(o.metrics, metric{name: name, value: goodQuartile(perWindow, higherIsBetter), unit: unit, samples: samples, windows: perWindow})
}

// goodQuartile returns the figure a quarter of the windows beat; see windows.
func goodQuartile(perWindow []float64, higherIsBetter bool) float64 {
	if len(perWindow) == 0 {
		return 0
	}
	s := append([]float64(nil), perWindow...)
	sort.Float64s(s)
	if higherIsBetter {
		return s[len(s)-1-len(s)/4]
	}
	return s[len(s)/4]
}

func (o *outcome) get(name string) (float64, bool) {
	for _, m := range o.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// latency reports publish→deliver latency from the intended send time:
// sample i was due at due[i] and arrived lat[i] later. Each percentile is
// taken per window.
func (o *outcome) latency(w windows, due, lat []int64) {
	per := make([][]int64, w.n)
	n := 0
	for i, d := range due {
		if k := w.of(d); k >= 0 {
			per[k] = append(per[k], lat[i])
			n++
		}
	}
	for _, q := range []struct {
		name string
		p    float64
	}{{"deliver_p50_us", 0.50}, {"deliver_p90_us", 0.90}, {"deliver_p99_us", 0.99}} {
		var vs []float64
		for _, ns := range per {
			if len(ns) > 0 {
				slices.Sort(ns)
				vs = append(vs, usOf(percentile(ns, q.p)))
			}
		}
		o.setWindowed(q.name, vs, false, "us", n)
	}
}

// cpuPerDelivery reports the brokers' CPU time between two readings divided
// by the deliveries that arrived between them, per window. arrivals are the
// arrival times of every delivery, in any number of lists.
func (o *outcome) cpuPerDelivery(c *cpuSeries, arrivals ...[]int64) {
	counts := make([]int, len(c.at))
	for _, ats := range arrivals {
		for _, at := range ats {
			i := sort.Search(len(c.at), func(i int) bool { return c.at[i] > at }) - 1
			if i >= 0 && i < len(c.at)-1 {
				counts[i]++
			}
		}
	}
	var vs []float64
	total := 0
	for i := 0; i+1 < len(c.at); i++ {
		if counts[i] > 0 {
			vs = append(vs, (c.cpu[i+1]-c.cpu[i])*1e6/float64(counts[i]))
			total += counts[i]
		}
	}
	o.setWindowed("broker_cpu_us_per_delivery", vs, false, "us", total)
}

// rate reports events per second, per window.
func (o *outcome) rate(name string, w windows, at []int64) {
	counts := make([]float64, w.n)
	n := 0
	for _, t := range at {
		if k := w.of(t); k >= 0 {
			counts[k]++
			n++
		}
	}
	for i := range counts {
		counts[i] /= sec(w.width)
	}
	o.setWindowed(name, counts, true, "1/s", n)
}

// opTime reports how long a closed-loop operation takes — operation i began
// at began[i] and took ns[i] — in milliseconds: <base>_p50_ms, the median per
// window, whose reported figure it returns, and <base>_p95_ms over the whole
// phase.
func (o *outcome) opTime(base string, w windows, began, ns []int64) float64 {
	per := make([][]int64, w.n)
	var all []int64
	for i, t := range began {
		if k := w.of(t); k >= 0 {
			per[k] = append(per[k], ns[i])
			all = append(all, ns[i])
		}
	}
	var vs []float64
	for _, d := range per {
		if len(d) > 0 {
			slices.Sort(d)
			vs = append(vs, percentile(d, 0.5)/1e6)
		}
	}
	o.setWindowed(base+"_p50_ms", vs, false, "ms", len(all))
	slices.Sort(all)
	o.setSampled(base+"_p95_ms", percentile(all, 0.95)/1e6, "ms", len(all))
	return goodQuartile(vs, false)
}

// generator reports how well the sender held the open-loop schedule over the
// windows, and marks the run invalid when it did not: then latency measures
// the generator, not the overlay. Like the latencies, the lag percentile is
// taken per window and the median over windows reported.
func (o *outcome) generator(log *sendLog, offered float64, w windows) {
	per := make([][]int64, w.n)
	var callSum, n int64
	for i, due := range log.due {
		if k := w.of(due); k >= 0 {
			per[k] = append(per[k], log.lag[i])
			callSum += log.call[i]
			n++
		}
	}
	var lags []float64
	for _, lag := range per {
		if len(lag) > 0 {
			slices.Sort(lag)
			lags = append(lags, usOf(percentile(lag, 0.99)))
		}
	}
	lagP99 := median(lags)
	achieved := float64(n) / sec(w.end()-w.from)
	o.setSampled("gen.lag_p99_us", lagP99, "us", int(n))
	if n > 0 {
		o.setSampled("gen.send_call_ns", float64(callSum)/float64(n), "ns", int(n))
	}
	o.set("gen.achieved_rate", achieved, "1/s")
	if lagP99 > 1000 {
		o.invalid = append(o.invalid, fmt.Sprintf("gen.lag_p99_us %.0f > 1000", lagP99))
	}
	if achieved < 0.99*offered {
		o.invalid = append(o.invalid, fmt.Sprintf("achieved rate %.0f/s < 99%% of offered %.0f/s", achieved, offered))
	}
}

// finish adds the set-up time, which every workload reports the same way:
// the median over the run's set-ups.
func (o *outcome) finish() {
	o.setSampled("setup_s", median(o.setups), "s", len(o.setups))
}

// print writes the human-readable report: one "workload metric value unit"
// line per metric, then the oracle's tally and any notes.
func (o *outcome) print(w *strings.Builder) {
	for _, m := range o.metrics {
		fmt.Fprintf(w, "%s %s %.4f %s", o.workload, m.name, m.value, m.unit)
		if m.samples > 0 {
			fmt.Fprintf(w, " (n=%d)", m.samples)
		}
		if len(m.windows) > 0 {
			fmt.Fprintf(w, " windows %.4g", m.windows)
		}
		w.WriteByte('\n')
	}
	failedShare := 0.0
	if o.tally.attempted > 0 {
		failedShare = float64(o.tally.failed()) / float64(o.tally.attempted)
	}
	fmt.Fprintf(w, "%s failed_share %.6f ratio (%s)\n", o.workload, failedShare, o.tally)
	for _, n := range o.notes {
		fmt.Fprintf(w, "%s # %s\n", o.workload, n)
	}
	for _, n := range o.invalid {
		fmt.Fprintf(w, "%s # INVALID RUN: %s\n", o.workload, n)
	}
}

// percentile returns the p-quantile of sorted samples (nearest rank), 0 for
// none.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// median returns the median of vs, which it leaves alone.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return medianSorted(s)
}

func medianSorted(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive" method),
// which is what the acceptance check computes spreads from.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
