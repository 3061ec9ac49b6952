// Command bench is the repository's one benchmark: four workloads
// against an in-process cluster, every metric printed by name, outputs
// verified, layer attribution from spans the benchmark records itself.
// README.md in this directory is the manual.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one workload (the driver's form)
//	bench [-trace 1] [-out F | -append F]             all four, each in its own process
//	bench -compare a.json b.json                      two run records, metric by metric
//	bench -smoke                                      tiny geometry, shape checks only
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	appendTo string
	traceOut string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all four, one process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: the traced run (one worker, per-layer metrics); 0: the untraced run (end-to-end metrics)")
	flag.StringVar(&o.out, "out", "", "write the run record to this file")
	flag.StringVar(&o.appendTo, "append", "", "append the run record to this JSON-lines history")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1 and -workload: write the spans to this file as JSON lines")
	compare := flag.Bool("compare", false, "compare two run records given as arguments")
	smoke := flag.Bool("smoke", false, "run every workload at smoke geometry and check output shapes")
	printSpec := flag.Bool("print-spec", false, "print BENCHMARK.json as spec.go defines it")
	flag.Parse()
	o.trace = trace != 0

	var err error
	switch {
	case *printSpec:
		var doc []byte
		if doc, err = benchmarkJSON(); err == nil {
			_, err = os.Stdout.Write(doc)
		}
	case *compare:
		err = compareFiles(flag.Args())
	case *smoke:
		err = runSmoke(o.seed)
	case o.workload != "":
		err = runOne(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// workers is the closed loop's client count, the same on every host.
// Four clients keep both cores of the reference box busy; with two, the
// RPC-bound workload left them a third idle and its throughput fell
// into two modes a quarter apart (README.md, "Load").
const workers = 4

// runWorkload measures one workload in this process.
func runWorkload(o options) (*WorkloadRecord, error) {
	rec := &WorkloadRecord{
		Workload: o.workload, Trace: o.trace, Seed: o.seed, Seconds: o.seconds,
		Workers: workers, Correct: true,
	}
	if o.trace {
		rec.Workers = 1
	}
	pl, err := newPlan(o.workload, o.seed, rec.Workers)
	if err != nil {
		return nil, err
	}
	rec.Schedule = pl.hash()
	e := &env{pl: pl, workers: rec.Workers, tmpDir: os.TempDir()}
	if o.trace {
		e.tr = newTracer()
	}
	switch {
	case o.workload == wlPaperSim && o.trace:
		err = runSimTraced(e, rec)
	case o.workload == wlPaperSim:
		err = runSim(e, o.seconds, rec)
	case o.trace:
		err = runRealTraced(o.workload, e, o.seconds, o.traceOut, rec)
	default:
		err = runReal(o.workload, e, o.seconds, rec)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if !o.trace {
		attempted := rec.Attempted
		if attempted < 1 {
			attempted = 1
		}
		rec.add("failed_ops_frac", float64(rec.Failed)/float64(attempted))
	}
	if rec.Failed > 0 {
		rec.Correct = false
	}
	return rec, nil
}

// runOne is the driver's form: one workload, the table, then the result
// line last.
func runOne(o options) error {
	rec, err := runWorkload(o)
	if err != nil {
		return err
	}
	rec.printTable(os.Stdout)
	if err := saveRecord(o, []WorkloadRecord{*rec}); err != nil {
		return err
	}
	line, err := rec.resultLine()
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

func saveRecord(o options, wls []WorkloadRecord) error {
	run := newRunRecord(o.seed)
	run.Workloads = wls
	if o.out != "" {
		if err := writeRecord(o.out, false, run); err != nil {
			return err
		}
	}
	if o.appendTo != "" {
		return writeRecord(o.appendTo, true, run)
	}
	return nil
}

// runAll runs every workload in a process of its own, so that peak
// memory is per workload, and gathers their records into one.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "bench-run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var all []WorkloadRecord
	var failed []string
	for _, wl := range workloadSpecs {
		part := filepath.Join(dir, wl.Name+".json")
		trace := "0"
		if o.trace {
			trace = "1"
		}
		cmd := exec.Command(self,
			"-workload", wl.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", trace, "-out", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		runs, err := readRunRecords(part)
		if err != nil {
			return err
		}
		for _, rec := range runs[0].Workloads {
			if !rec.Correct {
				failed = append(failed, rec.Workload+": "+joinErrs(rec.Errors))
			}
		}
		all = append(all, runs[0].Workloads...)
	}
	if err := saveRecord(o, all); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("outputs were wrong or operations failed: %s", joinErrs(failed))
	}
	return nil
}

func compareFiles(args []string) error {
	if len(args) != 2 {
		return errors.New("-compare takes two run records or histories: a.json b.json")
	}
	a, err := readRunRecords(args[0])
	if err != nil {
		return err
	}
	b, err := readRunRecords(args[1])
	if err != nil {
		return err
	}
	if !compareRecords(os.Stdout, a, b) {
		return errors.New("not every metric is ok")
	}
	return nil
}

// runSmoke runs every workload, untraced and traced, at smoke geometry
// and checks that each produced the outputs the contract names. It
// asserts shapes, never speeds.
func runSmoke(seed int64) error {
	g = smokeGeometry
	start := time.Now()
	for _, wl := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			rec, err := runWorkload(options{workload: wl.Name, seed: seed, seconds: 0.3, trace: trace})
			if err != nil {
				return err
			}
			if err := checkShape(rec); err != nil {
				rec.printTable(os.Stderr)
				return fmt.Errorf("%s (trace %v): %w", wl.Name, trace, err)
			}
		}
	}
	fmt.Printf("smoke ok: %d workloads, untraced and traced, in %.1f s\n", len(workloadSpecs), time.Since(start).Seconds())
	return nil
}

// checkShape verifies a record against the output contract: correct, at
// least one op attempted, none failed, and every metric of its list
// present (end-to-end ones non-zero).
func checkShape(rec *WorkloadRecord) error {
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		return fmt.Errorf("correct=%v attempted=%d failed=%d: %s", rec.Correct, rec.Attempted, rec.Failed, joinErrs(rec.Errors))
	}
	if rec.Trace {
		layers := 0
		for _, m := range rec.Metrics {
			if m.Kind == kindLayer {
				layers++
			}
		}
		if layers == 0 {
			return errors.New("traced run reported no per-layer metric")
		}
	} else {
		for _, spec := range endToEnd {
			if m, ok := rec.metric(spec.Name); !ok || m.Value <= 0 {
				return fmt.Errorf("end-to-end metric %s missing or not positive", spec.Name)
			}
		}
	}
	_, err := rec.resultLine()
	return err
}
