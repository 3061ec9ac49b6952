// Command ignem-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	ignem-bench [-seed N] [-out DIR] [-claims] [experiment ...]
//	ignem-bench -list
//
// With no experiment arguments, every experiment runs in order. With
// -claims, each run prints its Paper / Measured / Verdict table (the
// ones EXPERIMENTS.md carries) instead of its figures.
//
// Profiling: -cpuprofile, -memprofile, and -mutexprofile write pprof
// profiles covering the experiments the invocation runs. Inspect them
// with `go tool pprof`; `make profile` captures the swim set.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/experiments"
)

// startProfiles begins the requested pprof captures and returns a
// finalizer that writes out the end-of-run profiles (heap, mutex).
func startProfiles(cpu, mem, mutex string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	if mutex != "" {
		// Sample every contended lock acquisition: the workloads here
		// are short, and an unsampled profile is what settles questions
		// like "does the Ignem master's coarse lock contend".
		runtime.SetMutexProfileFraction(1)
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			if f, err := os.Create(mem); err == nil {
				runtime.GC()
				_ = pprof.WriteHeapProfile(f)
				f.Close()
			} else {
				fmt.Fprintf(os.Stderr, "ignem-bench: memprofile: %v\n", err)
			}
		}
		if mutex != "" {
			if f, err := os.Create(mutex); err == nil {
				_ = pprof.Lookup("mutex").WriteTo(f, 0)
				f.Close()
			} else {
				fmt.Fprintf(os.Stderr, "ignem-bench: mutexprofile: %v\n", err)
			}
		}
	}, nil
}

// main defers to run so the deferred profile writers execute before the
// process exit code is set (os.Exit skips defers).
func main() { os.Exit(run()) }

func run() int {
	seed := flag.Int64("seed", 1, "random seed for workload generation and placement")
	list := flag.Bool("list", false, "list available experiments and exit")
	out := flag.String("out", "", "directory to write raw CSV data for plotting")
	claims := flag.Bool("claims", false, "print each experiment's claims table instead of its figures")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProf := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	mutexProf := flag.String("mutexprofile", "", "write an end-of-run mutex-contention profile to this file")
	all := experiments.All()
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-seed N] [experiment ...]\n\nExperiments:\n", os.Args[0])
		for _, s := range all {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", s.ID, s.Title)
		}
	}
	flag.Parse()

	if *cpuProf != "" || *memProf != "" || *mutexProf != "" {
		stop, err := startProfiles(*cpuProf, *memProf, *mutexProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ignem-bench: profile: %v\n", err)
			return 1
		}
		defer stop()
	}

	if *list {
		for _, s := range all {
			fmt.Printf("%-8s %s\n", s.ID, s.Title)
		}
		return 0
	}

	ids := flag.Args()
	if len(ids) == 0 {
		for _, s := range all {
			ids = append(ids, s.ID)
		}
	}
	exit := 0
	for _, id := range ids {
		i := slices.IndexFunc(all, func(s experiments.Spec) bool { return s.ID == id })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "ignem-bench: unknown experiment %q (try -list)\n", id)
			exit = 2
			continue
		}
		spec := all[i]
		start := time.Now()
		res, err := spec.Run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ignem-bench: %s: %v\n", id, err)
			exit = 1
			continue
		}
		if *claims {
			fmt.Printf("%s — %s\n\n%s\n", id, spec.Title, experiments.ClaimsTable(spec.Claims, res))
			continue
		}
		fmt.Println(res.Render())
		if data, ok := res.(experiments.DataWriter); ok && *out != "" {
			paths, err := data.WriteData(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ignem-bench: %s: write data: %v\n", id, err)
				exit = 1
			} else {
				fmt.Printf("[raw data: %v]\n", paths)
			}
		}
		fmt.Printf("[%s completed in %v wall time]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return exit
}
