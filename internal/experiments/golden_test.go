package experiments

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// paperRuns memoizes each registry experiment's paper-scale run with
// seed 1 (ignem-bench's default), so TestExperimentsMatchGoldens and the
// shape tests share one run per experiment.
var paperRuns = func() map[string]func() (Result, error) {
	runs := map[string]func() (Result, error){}
	for _, s := range All() {
		runs[s.ID] = sync.OnceValues(func() (Result, error) { return s.Run(1) })
	}
	return runs
}()

// paperRun returns experiment id's shared paper-scale run as R.
func paperRun[R Result](t *testing.T, id string) R {
	t.Helper()
	res, err := paperRuns[id]()
	if err != nil {
		t.Fatal(err)
	}
	return res.(R)
}

// csvExport is one CSV file an experiment's DataWriter writes: its
// header line and its data-row count (0: at least one row).
type csvExport struct {
	header string
	rows   int
}

// exports lists every CSV file each registry experiment writes.
var exports = map[string]map[string]csvExport{
	"fig1-2": {
		"fig1_block_reads.csv":   {"series,read_seconds", 3 * paperNodes * mediaBlocksPerNode},
		"fig2_task_runtimes.csv": {"series,task_seconds", 3 * paperNodes * mediaBlocksPerNode},
	},
	"fig3-4": {
		"fig3_read_over_lead.csv":     {"series,ratio", 0},
		"fig4_server_utilization.csv": {"server,window,utilization", 40 * (24*12 + 1)},
	},
	"swim": {
		"fig6_block_reads.csv":      {"series,seconds_or_bytes", 0},
		"fig7_memory.csv":           {"series,seconds_or_bytes", 0},
		"table1_job_durations.csv":  {"series,seconds_or_bytes", 4 * 200},
		"table2_task_durations.csv": {"series,seconds_or_bytes", 0},
	},
	"table3": {"table3_sort.csv": {"config,seconds", 3}},
	"fig8":   {"fig8_wordcount.csv": {"config,input_gb,seconds", len(WordcountLabels) * len(wordcountSizesGB)}},
	"fig9":   {"fig9_hive.csv": {"query,input_gb,config,seconds", 3 * len(hiveQueries())}},
}

// TestExperimentsMatchGoldens runs every registry experiment once, at
// paper scale with seed 1, and checks that one run four ways:
//   - its output equals testdata/<id>.golden, which is `ignem-bench
//     <id>` without the wall-time line. The virtual clock makes every
//     run repeat byte for byte, so a difference is a figure the change
//     moved; regenerate the goldens with `make golden` only when that
//     is intended;
//   - every claim reaches its declared verdict; a flipped one is named;
//   - EXPERIMENTS.md carries its claims table verbatim, as `ignem-bench
//     -claims <id>` prints it;
//   - its DataWriter, if it has one, writes exactly the CSV files listed
//     in exports.
//
// The experiments share no package state, so they run in parallel;
// the shape tests, also parallel, then read the same runs.
func TestExperimentsMatchGoldens(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", s.ID+".golden"))
			if err != nil {
				t.Fatalf("experiment %s has no golden (run make golden): %v", s.ID, err)
			}
			res := paperRun[Result](t, s.ID)
			if got := res.Render() + "\n\n"; got != string(want) {
				t.Errorf("output differs from testdata/%s.golden %s", s.ID, firstDiff(string(want), got))
			}
			for _, c := range s.Claims {
				if measured, v := c.Check(res); v != c.Want {
					t.Errorf("claim %s %q: measured %s, verdict %s, want %s", c.Figure, c.Quantity, measured, v, c.Want)
				}
			}
			if !strings.Contains(string(doc), ClaimsTable(s.Claims, res)) {
				t.Errorf("EXPERIMENTS.md lacks the claims table of %s as `go run ./cmd/ignem-bench -claims %s` prints it", s.ID, s.ID)
			}
			checkExports(t, s.ID, res)
		})
	}
}

// checkExports writes res's CSV files, if it has a DataWriter, and
// compares them with exports[id].
func checkExports(t *testing.T, id string, res Result) {
	t.Helper()
	var paths []string
	if dw, ok := res.(DataWriter); ok {
		var err error
		if paths, err = dw.WriteData(t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for _, p := range paths {
		names = append(names, filepath.Base(p))
		want, ok := exports[id][filepath.Base(p)]
		if !ok {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if rows := len(lines) - 1; lines[0] != want.header || rows < 1 || want.rows != 0 && rows != want.rows {
			t.Errorf("%s: header %q, %d rows; want %q, %d rows", filepath.Base(p), lines[0], rows, want.header, want.rows)
		}
	}
	var want []string
	for name := range exports[id] {
		want = append(want, name)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("%s export wrote %v, want %v", id, names, want)
	}
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; ; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl || i >= len(w) || i >= len(g) {
			return "at line " + strconv.Itoa(i+1) + ":\n golden: " + wl + "\n    got: " + gl
		}
	}
}
