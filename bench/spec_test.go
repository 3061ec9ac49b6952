package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesSpec keeps ../BENCHMARK.json and spec.go the
// same document. Regenerate the file with `bench -print-spec`.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from spec.go; run `bash bench/run.sh -print-spec > BENCHMARK.json`")
	}
}

// TestSpecMeetsTheContractLimits checks the limits a driver refuses a
// BENCHMARK.json for.
func TestSpecMeetsTheContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadSpecs {
		use(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			use(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the contract", m.Name, m.Unit)
			}
			if m.Better != higher && m.Better != lower {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if m.Kind == kindEndToEnd && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
			}
			if m.Name == "setup_s" {
				setup = m.Unit == "s" && m.Better == lower && m.Kind == kindEndToEnd
			}
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s, in s, lower is better")
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds = %d", runSeconds)
	}
	doc, _ := benchmarkJSON()
	if len(doc) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(doc))
	}
}

// TestResultLineHasExactlyTheContractKeys checks the driver's last line
// for both kinds of run.
func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	for _, trace := range []bool{false, true} {
		rec := &WorkloadRecord{Workload: wlScanCold, Trace: trace, Correct: true, Attempted: 3}
		rec.add("ops_per_s", 12.5)
		rec.add("blockcache.hit_ratio", 0.75)
		line, err := rec.resultLine()
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int64
			Failed    *int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("trace %v: %v in %s", trace, err, line)
		}
		if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
			t.Fatalf("trace %v: a key is missing in %s", trace, line)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("trace %v: %d metrics, want %d", trace, len(got.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := got.Metrics[m.Name]
			if !ok || v.Value == nil || v.Unit != m.Unit {
				t.Errorf("trace %v: metric %s missing or without value and unit %q", trace, m.Name, m.Unit)
			}
		}
	}
}
