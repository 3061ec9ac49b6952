package namenode

import (
	"fmt"
	"testing"

	"repro/internal/dfs"
	"repro/internal/simclock"
)

// TestAddBlocksMatchesSerialPlacement pins the determinism contract of
// the allocation RPC: with the same seed, one addBlocks call for n
// blocks produces exactly the block IDs, offsets, and replica targets
// that n one-block calls do.
func TestAddBlocksMatchesSerialPlacement(t *testing.T) {
	sizes := []int64{1 << 20, 1 << 20, 512 << 10, 1 << 20, 1}
	type alloc struct {
		id     dfs.BlockID
		size   int64
		offset int64
		nodes  string
	}
	collect := func(batched bool) []alloc {
		var out []alloc
		run(t, func(v *simclock.Virtual) {
			h := newHarness(t, v, 6)
			defer h.nn.Close()
			if _, err := h.nn.handleCreate(dfs.CreateReq{Path: "/f", Replication: 2}); err != nil {
				t.Fatal(err)
			}
			var lbs []dfs.LocatedBlock
			if batched {
				resp, err := h.nn.handleAddBlocks(dfs.AddBlocksReq{Path: "/f", Sizes: sizes})
				if err != nil {
					t.Fatal(err)
				}
				lbs = resp.Located
			} else {
				for _, size := range sizes {
					lb, err := addBlock(h.nn, "/f", size)
					if err != nil {
						t.Fatal(err)
					}
					lbs = append(lbs, lb)
				}
			}
			for _, lb := range lbs {
				out = append(out, alloc{lb.Block.ID, lb.Block.Size, lb.Offset, fmt.Sprint(lb.Nodes)})
			}
		})
		return out
	}
	serial := collect(false)
	batched := collect(true)
	if len(serial) != len(batched) {
		t.Fatalf("allocation counts differ: serial %d, batched %d", len(serial), len(batched))
	}
	for i := range serial {
		if serial[i] != batched[i] {
			t.Errorf("block %d: serial %+v, batched %+v", i, serial[i], batched[i])
		}
	}
}

// TestAddBlocksValidation covers the batched RPC's error cases: the
// whole request is validated before any block is allocated, so a bad
// batch leaves the file untouched.
func TestAddBlocksValidation(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 3)
		defer h.nn.Close()
		if _, err := h.nn.handleCreate(dfs.CreateReq{Path: "/f", Replication: 1}); err != nil {
			t.Fatal(err)
		}
		bad := []struct {
			name string
			req  dfs.AddBlocksReq
		}{
			{"no_sizes", dfs.AddBlocksReq{Path: "/f"}},
			{"unknown_path", dfs.AddBlocksReq{Path: "/nope", Sizes: []int64{1}}},
			{"zero_size", dfs.AddBlocksReq{Path: "/f", Sizes: []int64{1024, 0}}},
			{"negative_size", dfs.AddBlocksReq{Path: "/f", Sizes: []int64{-1}}},
			{"oversized", dfs.AddBlocksReq{Path: "/f", Sizes: []int64{1024, dfs.DefaultBlockSize + 1}}},
		}
		for _, tc := range bad {
			if _, err := h.nn.handleAddBlocks(tc.req); err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
		}
		// No partial allocation leaked out of the rejected batches.
		lbs, err := h.nn.Resolve("/f")
		if err != nil {
			t.Fatal(err)
		}
		if len(lbs) != 0 {
			t.Fatalf("rejected batches allocated %d blocks", len(lbs))
		}

		// A sealed file refuses allocation.
		if _, err := h.nn.handleComplete(dfs.CompleteReq{Path: "/f"}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.nn.handleAddBlocks(dfs.AddBlocksReq{Path: "/f", Sizes: []int64{1024}}); err == nil {
			t.Error("addBlocks on sealed file accepted")
		}
	})
}
