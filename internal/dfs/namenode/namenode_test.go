package namenode

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
	"repro/internal/transport"
)

var epoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// harness drives a namenode directly through its handlers (no datanode
// processes; registration and heartbeats are injected).
type harness struct {
	v  *simclock.Virtual
	nn *NameNode
}

func newHarness(t *testing.T, v *simclock.Virtual, datanodes int) *harness {
	t.Helper()
	net := transport.NewInmemNetwork(v)
	nn := New(v, net, Config{Addr: "nn", Seed: 1, HeartbeatExpiry: 5 * time.Second})
	if err := nn.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	h := &harness{v: v, nn: nn}
	for i := 0; i < datanodes; i++ {
		addr := string(rune('a' + i))
		if _, err := nn.handleRegister(dfs.RegisterReq{Addr: addr}); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	return h
}

func run(t *testing.T, fn func(v *simclock.Virtual)) {
	t.Helper()
	v := simclock.NewVirtual(epoch)
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		fn(v)
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("stalled: %v", v)
	}
}

func (h *harness) mkFile(t *testing.T, path string, blocks int, rep int) []dfs.LocatedBlock {
	t.Helper()
	if _, err := h.nn.handleCreate(dfs.CreateReq{Path: path, Replication: rep}); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < blocks; i++ {
		if _, err := h.nn.handleAddBlock(dfs.AddBlockReq{Path: path, Size: 1 << 20}); err != nil {
			t.Fatalf("addBlock: %v", err)
		}
	}
	if _, err := h.nn.handleComplete(dfs.CompleteReq{Path: path}); err != nil {
		t.Fatalf("complete: %v", err)
	}
	lbs, err := h.nn.Resolve(path)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return lbs
}

func TestNamespaceLifecycle(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 3)
		defer h.nn.Close()
		lbs := h.mkFile(t, "/f", 3, 2)
		if len(lbs) != 3 {
			t.Fatalf("blocks = %d", len(lbs))
		}
		for _, lb := range lbs {
			if len(lb.Nodes) != 2 {
				t.Errorf("block %d replicas = %v", lb.Block.ID, lb.Nodes)
			}
		}
		info, err := h.nn.handleGetInfo(dfs.GetInfoReq{Path: "/f"})
		if err != nil || info.Info.Size != 3<<20 || !info.Info.Complete {
			t.Errorf("info = %+v err=%v", info, err)
		}
		// Offsets are cumulative.
		if lbs[1].Offset != 1<<20 || lbs[2].Offset != 2<<20 {
			t.Errorf("offsets wrong: %+v", lbs)
		}
	})
}

func TestCreateValidation(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 1)
		defer h.nn.Close()
		if _, err := h.nn.handleCreate(dfs.CreateReq{Path: ""}); err == nil {
			t.Error("empty path accepted")
		}
		h.mkFile(t, "/f", 1, 1)
		if _, err := h.nn.handleCreate(dfs.CreateReq{Path: "/f"}); err == nil {
			t.Error("duplicate accepted")
		}
		// Sealed file rejects more blocks.
		if _, err := h.nn.handleAddBlock(dfs.AddBlockReq{Path: "/f", Size: 1}); err == nil {
			t.Error("addBlock on sealed file accepted")
		}
		// Oversized block rejected.
		if _, err := h.nn.handleCreate(dfs.CreateReq{Path: "/g", BlockSize: 10}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.nn.handleAddBlock(dfs.AddBlockReq{Path: "/g", Size: 11}); err == nil {
			t.Error("oversized block accepted")
		}
		if _, err := h.nn.handleAddBlock(dfs.AddBlockReq{Path: "/g", Size: 0}); err == nil {
			t.Error("zero block accepted")
		}
	})
}

func TestAddBlockNoDatanodes(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 0)
		defer h.nn.Close()
		if _, err := h.nn.handleCreate(dfs.CreateReq{Path: "/f"}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.nn.handleAddBlock(dfs.AddBlockReq{Path: "/f", Size: 1}); err == nil ||
			!strings.Contains(err.Error(), "no live datanodes") {
			t.Errorf("err = %v", err)
		}
	})
}

func TestHeartbeatExpiryRemovesLocations(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 2)
		defer h.nn.Close()
		lbs := h.mkFile(t, "/f", 1, 2)
		if len(lbs[0].Nodes) != 2 {
			t.Fatalf("setup: %v", lbs[0].Nodes)
		}
		// Node "a" keeps heartbeating; node "b" goes silent.
		stop := simclock.NewChan[struct{}](v)
		v.Go(func() {
			for {
				if _, _, timedOut := stop.RecvTimeout(time.Second); !timedOut {
					return
				}
				if _, err := h.nn.handleHeartbeat(dfs.HeartbeatReq{Addr: "a"}); err != nil {
					return
				}
			}
		})
		v.Sleep(8 * time.Second)
		lbs, _ = h.nn.Resolve("/f")
		if len(lbs[0].Nodes) != 1 || lbs[0].Nodes[0] != "a" {
			t.Errorf("locations after expiry = %v", lbs[0].Nodes)
		}
		stop.Send(struct{}{})
	})
}

func TestHeartbeatFromUnregisteredRejected(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 1)
		defer h.nn.Close()
		if _, err := h.nn.handleHeartbeat(dfs.HeartbeatReq{Addr: "ghost"}); err == nil {
			t.Error("unregistered heartbeat accepted")
		}
	})
}

func TestPinStateTracking(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 2)
		defer h.nn.Close()
		lbs := h.mkFile(t, "/f", 1, 2)
		id := lbs[0].Block.ID
		node := lbs[0].Nodes[0]
		if _, err := h.nn.handleHeartbeat(dfs.HeartbeatReq{Addr: node, Pinned: []dfs.BlockID{id}}); err != nil {
			t.Fatal(err)
		}
		lbs, _ = h.nn.Resolve("/f")
		if len(lbs[0].Migrated) != 1 || lbs[0].Migrated[0] != node {
			t.Errorf("Migrated = %v", lbs[0].Migrated)
		}
		if _, err := h.nn.handleHeartbeat(dfs.HeartbeatReq{Addr: node, Unpinned: []dfs.BlockID{id}}); err != nil {
			t.Fatal(err)
		}
		lbs, _ = h.nn.Resolve("/f")
		if len(lbs[0].Migrated) != 0 {
			t.Errorf("Migrated after unpin = %v", lbs[0].Migrated)
		}
	})
}

func TestJobScopedLocationsCarryAssignment(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 3)
		defer h.nn.Close()
		h.mkFile(t, "/f", 2, 3)
		// Migration happens through the master, which records assignments.
		// The send fails (no datanode servers running) but assignment
		// state is recorded first.
		_, err := h.nn.handleMigrate(dfs.MigrateReq{Job: "j1", Paths: []string{"/f"}, SubmitTime: v.Now()})
		if err != nil {
			t.Fatalf("migrate: %v", err)
		}
		resp, err := h.nn.handleGetLocations(dfs.GetLocationsReq{Path: "/f", Job: "j1"})
		if err != nil {
			t.Fatal(err)
		}
		for _, lb := range resp.Blocks {
			if lb.Assigned == "" {
				t.Errorf("block %d missing assignment", lb.Block.ID)
			}
			found := false
			for _, n := range lb.Nodes {
				if n == lb.Assigned {
					found = true
				}
			}
			if !found {
				t.Errorf("assigned %q not a replica holder %v", lb.Assigned, lb.Nodes)
			}
		}
		// Un-scoped queries carry no assignment.
		resp, _ = h.nn.handleGetLocations(dfs.GetLocationsReq{Path: "/f"})
		for _, lb := range resp.Blocks {
			if lb.Assigned != "" {
				t.Error("assignment leaked into job-less query")
			}
		}
	})
}

func TestListPrefix(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 1)
		defer h.nn.Close()
		h.mkFile(t, "/a/1", 1, 1)
		h.mkFile(t, "/a/2", 1, 1)
		h.mkFile(t, "/b/1", 1, 1)
		resp, err := h.nn.handleList(dfs.ListReq{Prefix: "/a/"})
		if err != nil || len(resp.Files) != 2 {
			t.Errorf("list /a/ = %d files, err %v", len(resp.Files), err)
		}
		// Sorted by path.
		if resp.Files[0].Path != "/a/1" {
			t.Errorf("order: %+v", resp.Files)
		}
		all, _ := h.nn.handleList(dfs.ListReq{})
		if len(all.Files) != 3 {
			t.Errorf("list all = %d", len(all.Files))
		}
	})
}

func TestResolveMissing(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 1)
		defer h.nn.Close()
		if _, err := h.nn.Resolve("/missing"); err == nil {
			t.Error("resolve of missing file succeeded")
		}
		if _, err := h.nn.handleDelete(dfs.DeleteReq{Path: "/missing"}); err == nil {
			t.Error("delete of missing file succeeded")
		}
	})
}

// Property: replica targets are always distinct and never exceed the
// live-node count.
func TestPlacementProperty(t *testing.T) {
	f := func(rep uint8, nodes uint8) bool {
		nNodes := int(nodes%6) + 1
		r := int(rep%5) + 1
		ok := true
		run(t, func(v *simclock.Virtual) {
			h := newHarness(t, v, nNodes)
			defer h.nn.Close()
			lbs := h.mkFile(t, "/f", 4, r)
			want := r
			if want > nNodes {
				want = nNodes
			}
			for _, lb := range lbs {
				if len(lb.Nodes) != want {
					ok = false
				}
				seen := map[string]bool{}
				for _, n := range lb.Nodes {
					if seen[n] {
						ok = false
					}
					seen[n] = true
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestRackAwarePlacement(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		net := transport.NewInmemNetwork(v)
		racks := map[string]string{
			"a": "r1", "b": "r1", "c": "r1",
			"d": "r2", "e": "r2", "f": "r2",
		}
		nn := New(v, net, Config{Addr: "nn", Seed: 3, Racks: racks})
		if err := nn.Start(); err != nil {
			t.Fatal(err)
		}
		defer nn.Close()
		for addr := range racks {
			if _, err := nn.handleRegister(dfs.RegisterReq{Addr: addr}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := nn.handleCreate(dfs.CreateReq{Path: "/f", Replication: 3}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			resp, err := nn.handleAddBlock(dfs.AddBlockReq{Path: "/f", Size: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			nodes := resp.Located.Nodes
			if len(nodes) != 3 {
				t.Fatalf("replicas = %v", nodes)
			}
			// HDFS policy: replica 2 off replica 1's rack; replica 3 on
			// replica 2's rack.
			if racks[nodes[0]] == racks[nodes[1]] {
				t.Errorf("block %d: first two replicas share rack: %v", i, nodes)
			}
			if racks[nodes[1]] != racks[nodes[2]] {
				t.Errorf("block %d: third replica not with second: %v", i, nodes)
			}
			if nodes[1] == nodes[2] {
				t.Errorf("block %d: duplicate node: %v", i, nodes)
			}
		}
	})
}

func TestRackAwareDegradesGracefully(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		net := transport.NewInmemNetwork(v)
		// Only one rack: the policy falls back to distinct nodes.
		racks := map[string]string{"a": "r1", "b": "r1", "c": "r1"}
		nn := New(v, net, Config{Addr: "nn2", Seed: 3, Racks: racks})
		if err := nn.Start(); err != nil {
			t.Fatal(err)
		}
		defer nn.Close()
		for addr := range racks {
			if _, err := nn.handleRegister(dfs.RegisterReq{Addr: addr}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := nn.handleCreate(dfs.CreateReq{Path: "/f", Replication: 3}); err != nil {
			t.Fatal(err)
		}
		resp, err := nn.handleAddBlock(dfs.AddBlockReq{Path: "/f", Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Located.Nodes) != 3 {
			t.Errorf("replicas = %v", resp.Located.Nodes)
		}
		seen := map[string]bool{}
		for _, n := range resp.Located.Nodes {
			if seen[n] {
				t.Errorf("duplicate node: %v", resp.Located.Nodes)
			}
			seen[n] = true
		}
	})
}

// TestConcurrentClientsStress drives the namenode through its real RPC
// surface from many concurrent clients: unique files, unique block IDs,
// consistent metadata.
func TestConcurrentClientsStress(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 4)
		defer h.nn.Close()
		const clients, filesPer = 8, 6
		wg := simclock.NewWaitGroup(v)
		for cidx := 0; cidx < clients; cidx++ {
			cidx := cidx
			wg.Go(func() {
				for f := 0; f < filesPer; f++ {
					path := fmt.Sprintf("/c%d/f%d", cidx, f)
					if _, err := h.nn.handleCreate(dfs.CreateReq{Path: path, Replication: 2}); err != nil {
						t.Errorf("create %s: %v", path, err)
						return
					}
					for b := 0; b < 3; b++ {
						if _, err := h.nn.handleAddBlock(dfs.AddBlockReq{Path: path, Size: 1 << 20}); err != nil {
							t.Errorf("addBlock %s: %v", path, err)
							return
						}
						v.Sleep(time.Duration(cidx+1) * time.Millisecond)
					}
					if _, err := h.nn.handleComplete(dfs.CompleteReq{Path: path}); err != nil {
						t.Errorf("complete %s: %v", path, err)
					}
				}
			})
		}
		wg.Wait()

		resp, err := h.nn.handleList(dfs.ListReq{})
		if err != nil || len(resp.Files) != clients*filesPer {
			t.Fatalf("files = %d err %v", len(resp.Files), err)
		}
		// Block IDs are unique across all files.
		seen := map[dfs.BlockID]string{}
		for _, fi := range resp.Files {
			lbs, err := h.nn.Resolve(fi.Path)
			if err != nil {
				t.Fatal(err)
			}
			if len(lbs) != 3 {
				t.Errorf("%s has %d blocks", fi.Path, len(lbs))
			}
			for _, lb := range lbs {
				if prev, dup := seen[lb.Block.ID]; dup {
					t.Errorf("block %d in both %s and %s", lb.Block.ID, prev, fi.Path)
				}
				seen[lb.Block.ID] = fi.Path
			}
		}
	})
}

// TestReadersRaceRegistryTraffic hammers the read hot path (getInfo,
// getLocations, list) from many goroutines while heartbeats with pin
// deltas, block reports, and re-registrations mutate the registry and
// block state underneath. Run under -race this pins the RWMutex split:
// metadata lookups take read locks, registry traffic its own lock.
func TestReadersRaceRegistryTraffic(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 4)
		defer h.nn.Close()
		initial := h.mkFile(t, "/hot", 4, 2)
		var ids []dfs.BlockID
		for _, lb := range initial {
			ids = append(ids, lb.Block.ID)
		}

		// retryBusy repeats a full-report call while the intake gate
		// rejects it with DFS_BUSY, backing off as a datanode does. The
		// test checks the registry lock split, not the gate.
		retryBusy := func(call func() error) error {
			for {
				if err := call(); !dfs.IsBusy(err) {
					return err
				}
				v.Sleep(time.Millisecond)
			}
		}

		wg := simclock.NewWaitGroup(v)
		// Readers: lookups only.
		for r := 0; r < 8; r++ {
			wg.Go(func() {
				for i := 0; i < 200; i++ {
					if _, err := h.nn.handleGetInfo(dfs.GetInfoReq{Path: "/hot"}); err != nil {
						t.Errorf("getInfo: %v", err)
						return
					}
					if _, err := h.nn.handleGetLocations(dfs.GetLocationsReq{Path: "/hot"}); err != nil {
						t.Errorf("getLocations: %v", err)
						return
					}
					if _, err := h.nn.handleList(dfs.ListReq{Prefix: "/"}); err != nil {
						t.Errorf("list: %v", err)
						return
					}
				}
			})
		}
		// Registry writers: heartbeats flipping pin state, block reports,
		// re-registrations.
		for w := 0; w < 4; w++ {
			addr := string(rune('a' + w))
			wg.Go(func() {
				for i := 0; i < 100; i++ {
					req := dfs.HeartbeatReq{Addr: addr}
					if i%2 == 0 {
						req.Pinned = ids
					} else {
						req.Unpinned = ids
					}
					if _, err := h.nn.handleHeartbeat(req); err != nil {
						t.Errorf("heartbeat: %v", err)
						return
					}
					if i%10 == 0 {
						if err := retryBusy(func() error {
							_, err := h.nn.handleBlockReport(dfs.BlockReportReq{Addr: addr, Blocks: ids})
							return err
						}); err != nil {
							t.Errorf("blockReport: %v", err)
							return
						}
					}
					if i%25 == 0 {
						if err := retryBusy(func() error {
							_, err := h.nn.handleRegister(dfs.RegisterReq{Addr: addr, Blocks: ids})
							return err
						}); err != nil {
							t.Errorf("register: %v", err)
							return
						}
					}
					v.Sleep(time.Millisecond)
				}
			})
		}
		// Namespace writers: new files appearing during the storm.
		wg.Go(func() {
			for i := 0; i < 50; i++ {
				h.mkFile(t, fmt.Sprintf("/new%d", i), 1, 2)
				v.Sleep(2 * time.Millisecond)
			}
		})
		wg.Wait()

		// The storm settles into a consistent view: every node's last
		// block report claimed all of /hot's blocks, so each block ends
		// with all four locations.
		lbs, err := h.nn.Resolve("/hot")
		if err != nil {
			t.Fatal(err)
		}
		for _, lb := range lbs {
			if len(lb.Nodes) != 4 {
				t.Errorf("block %d ended with %d locations, want 4", lb.Block.ID, len(lb.Nodes))
			}
		}
		files, err := h.nn.handleList(dfs.ListReq{Prefix: "/new"})
		if err != nil || len(files.Files) != 50 {
			t.Errorf("list after storm: %d files, err %v", len(files.Files), err)
		}
	})
}
