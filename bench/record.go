package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// Summary is one metric of one workload: the value reported, how many
// samples it rests on, and the quartiles of its per-segment values (the
// spread a bound is compared against).
type Summary struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Kind    string  `json:"kind"`
	Bound   float64 `json:"bound,omitempty"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Q1      float64 `json:"q1"`
	Median  float64 `json:"median"`
	Q3      float64 `json:"q3"`
	// Segments holds the per-segment values the quartiles summarize, in
	// time order, when there is more than one.
	Segments []float64 `json:"segments,omitempty"`
}

// Check is one isolation check of the traced run.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// WorkloadRecord is the result of one workload process.
type WorkloadRecord struct {
	Workload   string    `json:"workload"`
	Trace      bool      `json:"trace"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Workers    int       `json:"workers"`
	ClockScale float64   `json:"clock_scale"`
	Schedule   string    `json:"schedule_hash"`
	Attempted  int64     `json:"attempted"`
	Failed     int64     `json:"failed"`
	Correct    bool      `json:"correct"`
	Errors     []string  `json:"errors,omitempty"`
	Metrics    []Summary `json:"metrics"`
	Checks     []Check   `json:"checks,omitempty"`
}

// RunRecord is one line of the history file: every workload of one run
// under one environment stamp.
type RunRecord struct {
	Schema     int              `json:"schema"`
	Time       string           `json:"time"`
	Commit     string           `json:"commit"`
	Dirty      bool             `json:"dirty"`
	GoVersion  string           `json:"go_version"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Workloads  []WorkloadRecord `json:"workloads"`
}

func newRunRecord(seed int64) RunRecord {
	commit, dirty := vcsStamp()
	return RunRecord{
		Schema:     1,
		Time:       time.Now().UTC().Format(time.RFC3339),
		Commit:     commit,
		Dirty:      dirty,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
}

// vcsStamp reads the commit the binary was built from. A checkout that
// is not a git repository (the driver's) has none.
func vcsStamp() (commit string, dirty bool) {
	commit = "unknown"
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return commit, false
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			commit = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return commit, dirty
}

// add appends a single-valued metric (quartiles collapse to the value).
func (r *WorkloadRecord) add(name string, v float64) {
	r.addSummary(name, v, 1, []float64{v})
}

// addSegments appends a metric reported as the median of per-segment
// values.
func (r *WorkloadRecord) addSegments(name string, segs []float64) {
	r.addSummary(name, median(segs), len(segs), segs)
}

// addSummary appends a metric with value v resting on n samples, whose
// spread is that of segs: the same statistic per segment (or per
// repetition), in time order.
func (r *WorkloadRecord) addSummary(name string, v float64, n int, segs []float64) {
	spec, ok := specByName[name]
	if !ok {
		panic("bench: metric " + name + " is not in spec.go")
	}
	s := sortedCopy(segs)
	m := Summary{
		Name: name, Unit: spec.Unit, Better: spec.Better, Kind: spec.Kind, Bound: spec.Bound,
		Value: v, Samples: n, Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75),
	}
	if len(segs) > 1 {
		m.Segments = segs
	}
	r.Metrics = append(r.Metrics, m)
}

func (r *WorkloadRecord) metric(name string) (Summary, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Summary{}, false
}

func (r *WorkloadRecord) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Correct = false
		r.Errors = append(r.Errors, "isolation check "+name+" failed")
	}
}

func (r *WorkloadRecord) fail(err error) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// printTable writes every metric by name with unit, sample count,
// median and quartiles.
func (r *WorkloadRecord) printTable(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %d worker(s), %.0f s, clock scale %g, schedule %s)\n",
		r.Workload, mode, r.Seed, r.Workers, r.Seconds, r.ClockScale, r.Schedule)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tn\tq1\tmedian\tq3\tbetter\tbound")
	for _, m := range r.Metrics {
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", m.Bound*100)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%.6g\t%.6g\t%.6g\t%s\t%s\n",
			m.Name, m.Value, m.Unit, m.Samples, m.Q1, m.Median, m.Q3, m.Better, bound)
	}
	tw.Flush()
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, c := range r.Checks {
		state := "ok"
		if !c.OK {
			state = "FAILED"
		}
		fmt.Fprintf(w, "  check %-28s %-6s %s\n", c.Name, state, c.Detail)
	}
}

// resultLine is the contract's last line of standard output.
func (r *WorkloadRecord) resultLine() ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := endToEnd
	if r.Trace {
		list = perLayer
	}
	metrics := make(map[string]val, len(list))
	for _, spec := range list {
		m, _ := r.metric(spec.Name) // a layer the workload bypasses reads 0
		metrics[spec.Name] = val{m.Value, spec.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct && r.Failed == 0, attempted, r.Failed, metrics})
}

// writeRecord stores rec at path: appended as one JSON line when
// appendTo is set, else overwriting path with indented JSON.
func writeRecord(path string, appendTo bool, rec any) error {
	if appendTo {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readRunRecords loads one run record (a JSON document) or every
// record of a JSON-lines history.
func readRunRecords(path string) ([]RunRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var one RunRecord
	if err := json.Unmarshal(data, &one); err == nil {
		return []RunRecord{one}, nil
	}
	var recs []RunRecord
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec RunRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("%s: neither a run record nor a history of them: %w", path, err)
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no run record", path)
	}
	return recs, nil
}

// side is one side of a comparison: every run of one build.
type side []RunRecord

// workloads lists the (workload, traced) pairs the side has, in first
// appearance order.
func (s side) workloads() []WorkloadRecord {
	var out []WorkloadRecord
	seen := map[string]bool{}
	for _, run := range s {
		for _, w := range run.Workloads {
			key := fmt.Sprint(w.Workload, w.Trace)
			if !seen[key] {
				seen[key] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// summary gathers one metric of one workload over the side's runs. With
// one run it is that run's summary, whose quartiles are those of its
// segments. With several, the value is the median of the runs' values
// and the quartiles are theirs: run-to-run spread, which is what a
// difference between two builds has to exceed.
func (s side) summary(workload string, trace bool, metric string) (sum Summary, failed int64, ok bool) {
	var values []float64
	for _, run := range s {
		for _, w := range run.Workloads {
			if w.Workload != workload || w.Trace != trace {
				continue
			}
			failed += w.Failed
			if m, has := w.metric(metric); has {
				sum, ok = m, true
				values = append(values, m.Value)
			}
		}
	}
	if len(values) > 1 {
		v := sortedCopy(values)
		sum.Value, sum.Median = quantile(v, 0.5), quantile(v, 0.5)
		sum.Q1, sum.Q3 = quantile(v, 0.25), quantile(v, 0.75)
		sum.Samples = len(v)
	}
	return sum, failed, ok
}

// Verdicts of the comparator.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares two summaries of one bounded metric. worse is how
// much b's value is worse than a's, as a share of a's.
func verdict(a, b Summary) (worse float64, v string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
		if a.Better == higher {
			worse = -worse
		}
	}
	switch {
	case spreadOf(a.Q1, a.Median, a.Q3) > a.Bound || spreadOf(b.Q1, b.Median, b.Q3) > a.Bound:
		return worse, verdictUnresolved
	case worse > a.Bound:
		return worse, verdictRegressed
	default:
		return worse, verdictOK
	}
}

// compareRecords prints, per workload and bounded metric, both values,
// the delta, the bound, both spreads and the verdict. It reports
// whether every metric came out ok.
func compareRecords(w io.Writer, a, b side) bool {
	fmt.Fprintf(w, "a: %s, %d run(s)  b: %s, %d run(s)\n", a[0].Commit, len(a), b[0].Commit, len(b))
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tunit\tworse by\tbound\tspread a\tspread b\tverdict")
	allOK := true
	for _, wa := range a.workloads() {
		names := make([]string, 0, len(wa.Metrics))
		for _, m := range wa.Metrics {
			if m.Bound > 0 {
				names = append(names, m.Name)
			}
		}
		sort.Strings(names)
		var failedA, failedB int64
		for _, name := range names {
			ma, fa, _ := a.summary(wa.Workload, wa.Trace, name)
			mb, fb, ok := b.summary(wa.Workload, wa.Trace, name)
			failedA, failedB = fa, fb
			if !ok {
				fmt.Fprintf(tw, "%s\t%s\t(missing in b)\n", wa.Workload, name)
				allOK = false
				continue
			}
			worse, v := verdict(ma, mb)
			if v != verdictOK {
				allOK = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				wa.Workload, name, ma.Value, mb.Value, ma.Unit, worse*100, ma.Bound*100,
				spreadOf(ma.Q1, ma.Median, ma.Q3)*100, spreadOf(mb.Q1, mb.Median, mb.Q3)*100, v)
		}
		if failedA != 0 || failedB != 0 {
			fmt.Fprintf(tw, "%s\tfailed ops\t%d\t%d\t\t\tany\t\t\t%s\n", wa.Workload, failedA, failedB, verdictRegressed)
			allOK = false
		}
	}
	tw.Flush()
	return allOK
}

func joinErrs(errs []string) string { return strings.Join(errs, "; ") }
