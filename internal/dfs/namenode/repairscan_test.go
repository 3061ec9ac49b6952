package namenode

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dfs"
)

// fullRepairScan is RepairScan as it was before the suspect queue: it
// examines every block on every call. It is the reference the queued
// sweep must match, job for job and draw for draw.
func fullRepairScan(ns *memNamespace, live map[string]bool) []repairJob {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	addrs := ns.table.addrsView()
	alive := make([]bool, len(addrs))
	for nid, addr := range addrs {
		alive[nid] = live[addr]
	}
	var short []dfs.BlockID
	for id, meta := range ns.blocks {
		if meta.healing {
			continue
		}
		n := 0
		for _, nid := range meta.nodes.view() {
			if alive[nid] {
				n++
			}
		}
		if n > 0 && n < int(meta.want) {
			short = append(short, id)
		}
	}
	slices.Sort(short)
	var liveAddrs []string
	for addr, ok := range live {
		if ok {
			liveAddrs = append(liveAddrs, addr)
		}
	}
	sort.Strings(liveAddrs)
	var jobs []repairJob
	for _, id := range short {
		meta := ns.blocks[id]
		var holders []string
		for _, nid := range meta.nodes.view() {
			if alive[nid] {
				holders = append(holders, addrs[nid])
			}
		}
		sort.Strings(holders)
		var candidates []string
		for _, addr := range liveAddrs {
			if nid, known := ns.table.lookup(addr); !known || !meta.nodes.contains(nid) {
				candidates = append(candidates, addr)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		target := candidates[ns.rng.Intn(len(candidates))]
		source := holders[ns.rng.Intn(len(holders))]
		meta.healing = true
		jobs = append(jobs, repairJob{block: dfs.Block{ID: id, Size: meta.size}, source: source, target: target})
	}
	return jobs
}

// TestRepairScanQueueMatchesFullScan drives two namespaces with the same
// seed through one seeded random sequence of every mutation the sweep's
// queue must notice: allocations and retargets, replica deltas both
// ways, full reconciles, repairs that succeed and fail, deletes,
// liveness flips and datanodes interned mid-run. After every step the
// queued sweep on one must return exactly the jobs a full scan returns
// on the other.
func TestRepairScanQueueMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkQueueAgainstFullScan(t, seed) })
	}
}

func checkQueueAgainstFullScan(t *testing.T, seed int64) {
	queued := newMemNamespace(seed, equivPlacer())
	full := newMemNamespace(seed, equivPlacer())
	both := func(f func(ns *memNamespace)) { f(queued); f(full) }
	r := rand.New(rand.NewSource(seed))
	// "g" and "h" are never placement targets: they enter the node table
	// only through deltas, reconciles and repairs.
	pool := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	live := map[string]bool{"a": true, "b": true, "c": true, "d": true, "e": true, "f": true}
	var files []string
	var pending []repairJob
	someBlocks := func() []dfs.BlockID {
		ids := make([]dfs.BlockID, 1+r.Intn(4))
		for i := range ids {
			ids[i] = dfs.BlockID(1 + r.Intn(int(queued.nextBlock)+2)) // may be unknown
		}
		return ids
	}
	incremental := 0
	for step := 0; step < 400; step++ {
		var op string
		switch k := r.Intn(8); {
		case k == 0 || len(files) == 0:
			path := fmt.Sprintf("/f%d", step)
			sizes := make([]int64, 1+r.Intn(4))
			for i := range sizes {
				sizes[i] = 1 << 20
			}
			rep := 2 + r.Intn(3) // 4 spills the inline node set
			op = "allocate " + path
			both(func(ns *memNamespace) {
				if err := ns.Create(path, 1<<20, rep); err != nil {
					t.Fatal(err)
				}
				if _, err := ns.Allocate(path, sizes, nil, 0); err != nil {
					t.Fatal(err)
				}
			})
			files = append(files, path)
		case k == 1:
			path := files[r.Intn(len(files))]
			info, err := queued.Resolve(path, 0, 0)
			if err != nil || len(info) == 0 {
				continue
			}
			id := info[r.Intn(len(info))].block.ID
			exclude := []string{pool[r.Intn(6)], pool[r.Intn(6)]}
			op = fmt.Sprintf("retarget %d excluding %v", id, exclude)
			both(func(ns *memNamespace) { _, _ = ns.Retarget(path, id, exclude) })
		case k == 2:
			addr, added, removed := pool[r.Intn(len(pool))], someBlocks(), someBlocks()
			op = fmt.Sprintf("deltas %s +%v -%v", addr, added, removed)
			both(func(ns *memNamespace) { ns.ApplyReplicaDeltas(addr, added, removed) })
		case k == 3:
			addr, held := pool[r.Intn(len(pool))], someBlocks()
			op = fmt.Sprintf("reconcile %s %v", addr, held)
			both(func(ns *memNamespace) { ns.Reconcile(addr, held) })
		case k == 4:
			if len(pending) == 0 {
				continue
			}
			i := r.Intn(len(pending))
			j, ok := pending[i], r.Intn(2) == 0
			pending = slices.Delete(pending, i, i+1)
			op = fmt.Sprintf("repair done %v ok=%v", j, ok)
			both(func(ns *memNamespace) { ns.RepairDone(j.block.ID, j.target, ok) })
		case k == 5:
			i := r.Intn(len(files))
			path := files[i]
			files = slices.Delete(files, i, i+1)
			op = "delete " + path
			both(func(ns *memNamespace) {
				if _, err := ns.Delete(path); err != nil {
					t.Fatal(err)
				}
			})
		default:
			addr := pool[r.Intn(len(pool))]
			live[addr] = !live[addr]
			op = fmt.Sprintf("%s live=%v", addr, live[addr])
		}
		before := queued.visits
		got := queued.RepairScan(live)
		want := fullRepairScan(full, live)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d (%s): queued sweep %v, full scan %v", step, op, got, want)
		}
		if queued.visits-before < len(queued.blocks) {
			incremental++
		}
		pending = append(pending, got...)
	}
	if incremental == 0 {
		t.Fatal("every sweep scanned the whole block map; the queue was never exercised")
	}
}

// TestRepairScanRequeuesBlocksWithoutCandidate: a short block whose
// every live datanode already holds it gets no job, and must stay
// queued, because a datanode the node table has never seen can come up
// without changing liveness by node ID, so no full scan would find it.
func TestRepairScanRequeuesBlocksWithoutCandidate(t *testing.T) {
	ns := newMemNamespace(1, equivPlacer())
	if err := ns.Create("/f", 1<<20, 3); err != nil {
		t.Fatal(err)
	}
	lbs, err := ns.Allocate("/f", []int64{1 << 20}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Two holders alive, the third and every other known node dead.
	live := map[string]bool{lbs[0].Nodes[0]: true, lbs[0].Nodes[1]: true}
	ns.RepairScan(map[string]bool{}) // the first sweep scans everything
	if jobs := ns.RepairScan(live); len(jobs) != 0 {
		t.Fatalf("jobs %v with no live non-holder", jobs)
	}
	live["g"] = true
	jobs := ns.RepairScan(live)
	if len(jobs) != 1 || jobs[0].target != "g" {
		t.Fatalf("after g came up: jobs %v, want one pull to g", jobs)
	}
}
