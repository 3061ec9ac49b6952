package namenode

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
)

// equivPlacer is a deterministic placeFunc for driving a namespace
// without a NameNode: it shuffles a fixed node list with the namespace's
// own rng stream and takes the first rep non-excluded addresses — the
// same shape as the real placeTargets, so every call draws the rng.
func equivPlacer() placeFunc {
	nodes := []string{"a", "b", "c", "d", "e", "f"}
	return func(rng *rand.Rand, rep int, exclude []string) []string {
		cand := append([]string(nil), nodes...)
		rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
		skip := make(map[string]bool, len(exclude))
		for _, e := range exclude {
			skip[e] = true
		}
		var out []string
		for _, n := range cand {
			if len(out) == rep {
				break
			}
			if !skip[n] {
				out = append(out, n)
			}
		}
		return out
	}
}

// transcript records every namespace result in a normalized textual
// form, so two runs can be compared step by step.
type transcript struct {
	lines []string
}

func (tr *transcript) addf(format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

func (tr *transcript) err(op string, err error) {
	tr.addf("%s err=%v", op, err)
}

func (tr *transcript) located(op string, lbs []dfs.LocatedBlock, err error) {
	tr.err(op, err)
	for _, lb := range lbs {
		tr.addf("  block=%d size=%d off=%d nodes=%v", lb.Block.ID, lb.Block.Size, lb.Offset, lb.Nodes)
	}
}

func (tr *transcript) resolved(op string, rbs []resolvedBlock, err error) {
	tr.err(op, err)
	for _, rb := range rbs {
		nodes := make([]string, len(rb.nodes))
		for i, n := range rb.nodes {
			nodes[i] = n
			if rb.tiers != nil {
				nodes[i] += ":" + rb.tiers[i].String()
			}
		}
		sort.Strings(nodes)
		tr.addf("  block=%d size=%d off=%d nodes=%v", rb.block.ID, rb.block.Size, rb.offset, nodes)
	}
}

// driveNamespace runs a fixed metadata workload — creates, single and
// batched allocations, idempotent replays, retarget, seal, lookups,
// reconcile, pin deltas, repair, delete — and returns the normalized
// transcript of every result.
func driveNamespace(ns *memNamespace) []string {
	tr := &transcript{}

	tr.err("create /a/x", ns.Create("/a/x", 1<<20, 2))
	tr.err("create /a/y", ns.Create("/a/y", 1<<20, 2))
	tr.err("create /b/z", ns.Create("/b/z", 1<<20, 3))
	tr.err("create dup /a/x", ns.Create("/a/x", 1<<20, 2))

	lbs, err := ns.Allocate("/a/x", []int64{1 << 20}, nil, 1)
	tr.located("alloc /a/x 1", lbs, err)
	lbs, err = ns.Allocate("/a/x", []int64{1 << 20, 1 << 19}, nil, 2)
	tr.located("alloc /a/x batch", lbs, err)
	// A replay of the latest request ID must return the cached result
	// without drawing the rng again.
	lbs, err = ns.Allocate("/a/x", []int64{1 << 20, 1 << 19}, nil, 2)
	tr.located("alloc /a/x batch replay", lbs, err)
	lbs, err = ns.Allocate("/b/z", []int64{1 << 20}, nil, 3)
	tr.located("alloc /b/z", lbs, err)
	_, err = ns.Allocate("/missing", []int64{1}, nil, 0)
	tr.err("alloc /missing", err)

	first, err := ns.Resolve("/a/x", 0, 0)
	tr.resolved("resolve /a/x", first, err)
	lb, err := ns.Retarget("/a/x", first[0].block.ID, []string{"b"})
	tr.located("retarget /a/x", []dfs.LocatedBlock{lb}, err)

	tr.err("complete /a/x", ns.Complete("/a/x"))
	_, err = ns.Allocate("/a/x", []int64{1}, nil, 4)
	tr.err("alloc sealed /a/x", err)

	info, err := ns.Info("/a/x")
	tr.addf("info /a/x = %+v err=%v", info, err)
	_, err = ns.Info("/missing")
	tr.err("info /missing", err)
	for _, f := range ns.List("/") {
		tr.addf("list: %+v", f)
	}
	for _, f := range ns.List("/a/") {
		tr.addf("list /a/: %+v", f)
	}

	// Pin deltas and reconcile against the first file's blocks.
	rbs, err := ns.Resolve("/a/x", 0, 0)
	tr.resolved("resolve /a/x post-retarget", rbs, err)
	var ids []dfs.BlockID
	for _, rb := range rbs {
		ids = append(ids, rb.block.ID)
	}
	ns.TierDeltas("c", dfs.TierRAM, ids[:1], nil)
	ns.TierDeltas("c", dfs.TierRAM, nil, ids[1:])
	ns.Reconcile("d", ids)
	rbs, err = ns.Resolve("/a/x", 0, 0)
	tr.resolved("resolve /a/x post-pin", rbs, err)
	ns.DropPinned([]string{"c"})
	rbs, err = ns.Resolve("/a/x", 0, 0)
	tr.resolved("resolve /a/x post-drop", rbs, err)

	// Exactly one block under-replicated at seed 42: strip every holder
	// of block ids[0] except "d" (the reconcile above made "d" a holder
	// of all of /a/x's blocks, and of nothing else — a seed that placed
	// /b/z on "d" leaves that block short too). Reconcile replaces a
	// node's whole holding set, so rebuild each node's holdings across
	// the live files minus ids[0]. RepairScan draws in block-ID order,
	// so a seed that leaves several blocks short replays just as well.
	holdings := map[string][]dfs.BlockID{}
	for _, path := range []string{"/a/x", "/a/y", "/b/z"} {
		rbs, err := ns.Resolve(path, 0, 0)
		if err != nil {
			continue
		}
		for _, rb := range rbs {
			if rb.block.ID == ids[0] {
				continue
			}
			for _, n := range rb.nodes {
				if n != "d" {
					holdings[n] = append(holdings[n], rb.block.ID)
				}
			}
		}
	}
	for _, addr := range []string{"a", "b", "c", "e", "f"} {
		ns.Reconcile(addr, holdings[addr])
	}
	live := map[string]bool{"a": true, "b": true, "c": true, "d": true, "e": true, "f": true}
	jobs := ns.RepairScan(live)
	for _, j := range jobs {
		tr.addf("repair block=%d source=%s target=%s", j.block.ID, j.source, j.target)
	}
	// While healing, a second scan must not re-issue the same pulls.
	if again := ns.RepairScan(live); len(again) != 0 {
		tr.addf("repair rescan issued %d jobs while healing", len(again))
	}
	for _, j := range jobs {
		ns.RepairDone(j.block.ID, j.target, true)
	}
	rbs, err = ns.Resolve("/a/x", 0, 0)
	tr.resolved("resolve /a/x post-repair", rbs, err)

	work, err := ns.Delete("/a/x")
	tr.err("delete /a/x", err)
	addrs := make([]string, 0, len(work))
	for addr := range work {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		blocks := append([]dfs.BlockID(nil), work[addr]...)
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		tr.addf("  delete work %s: %v", addr, blocks)
	}
	_, err = ns.Delete("/missing")
	tr.err("delete /missing", err)
	for _, f := range ns.List("/") {
		tr.addf("list post-delete: %+v", f)
	}
	return tr.lines
}

// TestNamespaceWorkloadInvariants drives the namespace through the
// fixed workload and checks it is deterministic for a seed, and that
// the seed moves only placement and what placement decides (which
// blocks the workload's holder stripping leaves under-replicated): the
// op success/error pattern, block sizes and offsets, and the file
// listing are the same under any seed.
func TestNamespaceWorkloadInvariants(t *testing.T) {
	strip := func(lines []string) []string {
		out := make([]string, 0, len(lines))
		for _, l := range lines {
			// Normalize away placement-dependent detail: node sets,
			// repair jobs, delete work fan-out.
			if i := strings.Index(l, " nodes="); i >= 0 {
				l = l[:i]
			}
			if strings.HasPrefix(l, "repair block=") || strings.HasPrefix(l, "  delete work ") {
				continue
			}
			out = append(out, l)
		}
		return out
	}
	base := driveNamespace(newMemNamespace(42, equivPlacer()))
	if again := driveNamespace(newMemNamespace(42, equivPlacer())); strings.Join(again, "\n") != strings.Join(base, "\n") {
		t.Fatalf("same seed, different transcripts:\n%s\n---\n%s", strings.Join(base, "\n"), strings.Join(again, "\n"))
	}
	var repairs []string
	for _, l := range base {
		if strings.HasPrefix(l, "repair ") {
			repairs = append(repairs, l)
		}
	}
	if len(repairs) != 1 {
		t.Errorf("seed=42: repair lines %q, want exactly one pull and no re-issue while healing", repairs)
	}
	stripped := strip(base)
	for _, seed := range []int64{1, 7, 1 << 40} {
		got := strip(driveNamespace(newMemNamespace(seed, equivPlacer())))
		if len(got) != len(stripped) {
			t.Fatalf("seed=%d: transcript length %d, want %d", seed, len(got), len(stripped))
		}
		for i := range stripped {
			if got[i] != stripped[i] {
				t.Errorf("seed=%d step %d:\n  seed=42: %s\n  seed=%d: %s", seed, i, stripped[i], seed, got[i])
			}
		}
	}
}

// TestConcurrentCreateDeleteOpen hammers the namespace with workers
// creating, allocating, opening, and deleting files in per-worker
// directories while readers list the whole namespace. Run under -race
// this pins the namespace's locking; the final listing checks no create
// or delete was lost.
func TestConcurrentCreateDeleteOpen(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 4)
		defer h.nn.Close()

		const workers = 8
		const files = 40
		wg := simclock.NewWaitGroup(v)
		for w := 0; w < workers; w++ {
			w := w
			wg.Go(func() {
				for i := 0; i < files; i++ {
					path := fmt.Sprintf("/w%d/f%03d", w, i)
					if _, err := h.nn.handleCreate(dfs.CreateReq{Path: path, Replication: 2}); err != nil {
						t.Errorf("create %s: %v", path, err)
						return
					}
					if _, err := addBlock(h.nn, path, 1<<20); err != nil {
						t.Errorf("addBlock %s: %v", path, err)
						return
					}
					if _, err := h.nn.handleGetInfo(dfs.GetInfoReq{Path: path}); err != nil {
						t.Errorf("getInfo %s: %v", path, err)
						return
					}
					if _, err := h.nn.handleGetLocations(dfs.GetLocationsReq{Path: path}); err != nil {
						t.Errorf("getLocations %s: %v", path, err)
						return
					}
					// Every third file is deleted again immediately.
					if i%3 == 0 {
						if _, err := h.nn.handleDelete(dfs.DeleteReq{Path: path}); err != nil {
							t.Errorf("delete %s: %v", path, err)
							return
						}
					}
					if i%8 == 0 {
						v.Sleep(time.Millisecond)
					}
				}
			})
		}
		// Readers sweep the whole namespace while the writers churn.
		for r := 0; r < 4; r++ {
			wg.Go(func() {
				for i := 0; i < 100; i++ {
					if _, err := h.nn.handleList(dfs.ListReq{Prefix: "/"}); err != nil {
						t.Errorf("list: %v", err)
						return
					}
					v.Sleep(time.Millisecond)
				}
			})
		}
		wg.Wait()

		resp, err := h.nn.handleList(dfs.ListReq{Prefix: "/"})
		if err != nil {
			t.Fatal(err)
		}
		perWorker := files - (files+2)/3
		if len(resp.Files) != workers*perWorker {
			t.Errorf("final namespace holds %d files, want %d", len(resp.Files), workers*perWorker)
		}
	})
}
