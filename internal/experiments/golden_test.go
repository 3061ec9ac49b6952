package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsMatchGoldens runs every registry experiment at paper
// scale with seed 1, ignem-bench's default, and compares its output
// with testdata/<id>.golden, which is `ignem-bench <id>` without the
// wall-time line. The virtual clock makes every run repeat byte for
// byte, so a difference is a figure the change moved; regenerate the
// goldens with `make golden` only when that is intended. The
// experiments share no package state, so they run in parallel.
func TestExperimentsMatchGoldens(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", s.ID+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			rendered, _, err := s.Run(1)
			if err != nil {
				t.Fatal(err)
			}
			if got := rendered + "\n\n"; got != string(want) {
				t.Errorf("output differs from testdata/%s.golden %s", s.ID, firstDiff(string(want), got))
			}
		})
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
