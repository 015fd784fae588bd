// Command rebeca-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	rebeca-experiments -experiment all
//	rebeca-experiments -experiment table1
//	rebeca-experiments -list
//
// With -cpuprofile / -mutexprofile the run is profiled (pprof format),
// so hot paths and lock contention can be inspected on the registered
// scenarios:
//
//	rebeca-experiments -experiment fig8 -cpuprofile cpu.pprof -mutexprofile mutex.pprof
//	go tool pprof cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rebeca-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rebeca-experiments", flag.ContinueOnError)
	name := fs.String("experiment", "all",
		"experiment to run: "+strings.Join(experiments.Names(), ", ")+", or all")
	list := fs.Bool("list", false, "list experiments and exit")
	cpuprofile := fs.String("cpuprofile", "",
		"write a CPU profile of the run to this file")
	mutexprofile := fs.String("mutexprofile", "",
		"write a mutex-contention profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return nil
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexprofile != "" {
		// Sample every contention event; the default rate of 0 records
		// nothing.
		runtime.SetMutexProfileFraction(1)
		defer runtime.SetMutexProfileFraction(0)
	}
	out, err := experiments.Run(*name)
	if err != nil {
		return err
	}
	if *mutexprofile != "" {
		f, cerr := os.Create(*mutexprofile)
		if cerr != nil {
			return fmt.Errorf("-mutexprofile: %w", cerr)
		}
		defer f.Close()
		if perr := pprof.Lookup("mutex").WriteTo(f, 0); perr != nil {
			return fmt.Errorf("-mutexprofile: %w", perr)
		}
	}
	fmt.Print(out)
	return nil
}
