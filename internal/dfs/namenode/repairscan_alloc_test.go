package namenode

import (
	"fmt"
	"testing"
)

// TestRepairScanHealthyAllocs is the count gate on the replication
// sweep's steady state, at 1 k and 10 k healthy blocks. A sweep whose
// liveness matches the last one examines only queued blocks, and with
// no mutation in between it must visit no block and allocate nothing.
// A sweep after a liveness change scans every block, nearly all of them
// healthy, and a healthy block must cost no allocation either (the
// sweep used to build a holder list per block, 3 allocations each), so
// the full sweep allocates nothing once its liveness buffers exist.
// Run via `make bench-alloc`.
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
				if _, err := ns.Allocate(path, sizes, nil, 0); err != nil {
					t.Fatalf("allocate: %v", err)
				}
			}
			// "g" holds nothing, so flipping it forces a full sweep that
			// finds every block healthy.
			ns.table.intern("g")
			var jobs int
			full := testing.AllocsPerRun(5, func() {
				live["g"] = !live["g"]
				jobs += len(ns.RepairScan(live))
			})
			before := ns.visits
			steady := testing.AllocsPerRun(5, func() { jobs += len(ns.RepairScan(live)) })
			if jobs != 0 {
				t.Fatalf("RepairScan found %d jobs in a fully replicated namespace", jobs)
			}
			if v := ns.visits - before; v != 0 {
				t.Errorf("steady-state sweeps visited %d blocks, want 0", v)
			}
			if full > 0 || steady > 0 {
				t.Errorf("RepairScan over %d healthy blocks: %.0f allocs per full sweep, %.0f per steady sweep, want 0", blocks, full, steady)
			}
			t.Logf("%d healthy blocks: %.0f allocs per full sweep, %.0f per steady sweep", blocks, full, steady)
		})
	}
}

// TestRepairScanDeterministicDraws: with many blocks short of a replica
// in one sweep, the seeded (target, source) draws land on the same
// blocks in every run. The block map iterates in random order, so the
// sweep must not draw while iterating it.
func TestRepairScanDeterministicDraws(t *testing.T) {
	build := func() *memNamespace {
		ns := newMemNamespace(5, equivPlacer())
		sizes := make([]int64, 25)
		for i := range sizes {
			sizes[i] = 1 << 20
		}
		for f := 0; f < 4; f++ {
			path := fmt.Sprintf("/r/f%d", f)
			if err := ns.Create(path, 1<<20, 3); err != nil {
				t.Fatalf("create: %v", err)
			}
			if _, err := ns.Allocate(path, sizes, nil, 0); err != nil {
				t.Fatalf("allocate: %v", err)
			}
		}
		return ns
	}
	// "a" is dead: every block it held is one replica short.
	live := map[string]bool{"a": false, "b": true, "c": true, "d": true, "e": true, "f": true}
	scan := func() string { return fmt.Sprint(build().RepairScan(live)) }
	first := build().RepairScan(live)
	if len(first) < 2 {
		t.Fatalf("%d repair jobs; the test needs several short blocks in one sweep", len(first))
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].block.ID >= first[i].block.ID {
			t.Fatalf("jobs not in block-ID order: %v", first)
		}
	}
	want := fmt.Sprint(first)
	for i := 0; i < 50; i++ {
		if a, b := scan(), scan(); a != want || b != want {
			t.Fatalf("round %d: same seed, different repair jobs:\n%s\n%s\nwant\n%s", i, a, b, want)
		}
	}
}
