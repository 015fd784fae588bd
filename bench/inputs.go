package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/filter"
	"repro/internal/message"
)

// Open-loop rates are frozen constants: each was calibrated once, on the
// commit that introduced the benchmark, so that the brokers' one core is about
// 40 % busy on the 2-core builder, and rounded. They are not re-derived at run
// time, so two commits are always offered the same load. The saturation
// window is the smallest at which that core is fully busy. README.md records
// the calibration.
var transitChain = &streamWorkload{
	name:   "transit_chain",
	topo:   topoChain,
	rate:   4000,
	window: 4096,
	inputs: transitInputs,
}

var selectiveMatch = &streamWorkload{
	name:   "selective_match",
	topo:   topoPair,
	rate:   2000,
	window: 4096,
	inputs: selectiveInputs,
}

func mustFilter(src string) filter.Filter {
	f, err := filter.Parse(src)
	if err != nil {
		panic(err) // the generator only formats filters of a fixed shape
	}
	return f
}

// transitInputs: one subscription every publish matches, and notifications
// of only the two attributes every workload carries (seq, ts) — the
// smallest message the system forwards.
func transitInputs(int64, bool) streamInputs {
	src := attrSeq + " >= 0"
	return streamInputs{
		srcs:   []string{src},
		subs:   []filter.Filter{mustFilter(src)},
		pool:   []message.Notification{message.NewAttrs()},
		expect: [][]int32{{0}},
	}
}

// The selective_match content model: market-data-like notifications of six
// content attributes (eight with seq and ts, about 200 bytes encoded).
const (
	selSubs      = 10000
	selSymbols   = 2000
	selExchanges = 16
	selKinds     = 8
	selPriceMax  = 10000
	selVolumeMax = 1000000
)

var selRegions = []string{
	"eu-west-1", "eu-west-2", "eu-north-1", "eu-south-1",
	"us-east-1", "us-east-2", "us-west-1", "us-west-2",
	"ap-south-1", "ap-east-1", "ap-north-1", "ap-west-1",
	"sa-east-1", "sa-west-1", "sa-north-1", "sa-south-1",
}

var selContinents = []string{"eu-", "us-", "ap-", "sa-"}

func selSymbol(i int) string   { return fmt.Sprintf("SYM%04d", i) }
func selExchange(i int) string { return fmt.Sprintf("XCH%02d", i) }
func selKind(i int) string     { return fmt.Sprintf("kind%d", i) }

// selectiveInputs: subs seeded subscriptions of three shapes (equality +
// range, prefix + equality + range, equality + narrow range), each built to
// match one notification in 5 000, so a notification matches about
// subs/5 000 of them; and a pool of distinct notification contents, each
// matching at least one subscription so that every publish can be accounted
// for by a delivery. The expected delivery set of each content is computed
// here with filter.Matches, independently of the brokers' match index.
func selectiveInputs(seed int64, short bool) streamInputs {
	subs, pool := selSubs, 2048
	if short {
		subs, pool = 1000, 128
	}
	rng := rand.New(rand.NewSource(seed))
	in := streamInputs{srcs: make([]string, subs), subs: make([]filter.Filter, subs)}
	for i := range in.subs {
		var src string
		switch i % 3 {
		case 0: // 1/2000 × 4000/10000
			lo := rng.Intn(selPriceMax - 4000)
			src = fmt.Sprintf(`sym = %q && price in [%d, %d]`, selSymbol(rng.Intn(selSymbols)), lo, lo+3999)
		case 1: // 1/4 × 1/8 × 6400/1000000
			lo := rng.Intn(selVolumeMax - 6400)
			src = fmt.Sprintf(`region prefix %q && kind = %q && volume in [%d, %d]`,
				selContinents[rng.Intn(len(selContinents))], selKind(rng.Intn(selKinds)), lo, lo+6399)
		default: // 1/16 × 32/10000
			lo := rng.Intn(selPriceMax - 32)
			src = fmt.Sprintf(`exchange = %q && price in [%d, %d]`, selExchange(rng.Intn(selExchanges)), lo, lo+31)
		}
		in.srcs[i], in.subs[i] = src, mustFilter(src)
	}

	// Candidate contents are drawn in seed order and matched in parallel;
	// the pool is the first `pool` candidates that match something, so it
	// depends on the seed alone.
	for len(in.pool) < pool {
		cands := make([]message.Notification, pool)
		for i := range cands {
			cands[i] = message.NewAttrs(
				message.Attr{Name: "sym", Value: message.String(selSymbol(rng.Intn(selSymbols)))},
				message.Attr{Name: "exchange", Value: message.String(selExchange(rng.Intn(selExchanges)))},
				message.Attr{Name: "region", Value: message.String(selRegions[rng.Intn(len(selRegions))])},
				message.Attr{Name: "kind", Value: message.String(selKind(rng.Intn(selKinds)))},
				message.Attr{Name: "price", Value: message.Int(int64(rng.Intn(selPriceMax)))},
				message.Attr{Name: "volume", Value: message.Int(int64(rng.Intn(selVolumeMax)))},
			)
		}
		matched := matchAll(in.subs, cands)
		for i, m := range matched {
			if len(m) > 0 && len(in.pool) < pool {
				in.pool = append(in.pool, cands[i])
				in.expect = append(in.expect, m)
			}
		}
	}
	return in
}

// matchAll returns, for each notification, the ascending indices of the
// filters that match it — the reference the oracle holds deliveries to.
func matchAll(subs []filter.Filter, ns []message.Notification) [][]int32 {
	out := make([][]int32, len(ns))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ns); i += workers {
				for j, f := range subs {
					if f.Matches(ns[i]) {
						out[i] = append(out[i], int32(j))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return out
}
