package namenode

import (
	"fmt"
	"testing"
)

// TestRepairScanHealthyAllocs is the count gate on the replication
// sweep's steady state: every block of every sweep is visited, nearly all
// are fully replicated, and such a block must cost no allocation — the
// sweep used to build a holder list per block (3 allocations each). The
// ceiling is a constant, the same at 1 k and 10 k blocks; today a
// healthy sweep allocates nothing. Run via
// `make bench-alloc`.
func TestRepairScanHealthyAllocs(t *testing.T) {
	live := map[string]bool{"a": true, "b": true, "c": true, "d": true, "e": true, "f": true}
	for _, blocks := range []int{1_000, 10_000} {
		t.Run(fmt.Sprint(blocks), func(t *testing.T) {
			ns := newMemNamespace(1, equivPlacer())
			sizes := make([]int64, 100)
			for i := range sizes {
				sizes[i] = 1 << 20
			}
			for f := 0; f < blocks/len(sizes); f++ {
				path := fmt.Sprintf("/d%d/f%d", f%7, f)
				if err := ns.Create(path, 1<<20, 3); err != nil {
					t.Fatalf("create: %v", err)
				}
				if _, err := ns.Allocate(path, sizes, nil, nil, 0, true); err != nil {
					t.Fatalf("allocate: %v", err)
				}
			}
			var jobs int
			allocs := testing.AllocsPerRun(5, func() { jobs += len(ns.RepairScan(live)) })
			if jobs != 0 {
				t.Fatalf("RepairScan found %d jobs in a fully replicated namespace", jobs)
			}
			const ceiling = 4
			if allocs > ceiling {
				t.Errorf("RepairScan over %d healthy blocks: %.0f allocs, ceiling %d", blocks, allocs, ceiling)
			}
			t.Logf("%d healthy blocks: %.0f allocs per sweep", blocks, allocs)
		})
	}
}
