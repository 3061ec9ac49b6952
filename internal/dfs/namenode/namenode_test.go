package namenode

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
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
		if _, err := nn.register(dfs.RegisterReq{Addr: addr}); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	return h
}

// The namenode refuses a report without a sequence number. register and
// heartbeat number a test's report the way a datanode numbers its own —
// one counter from 1 across both, and a new epoch with every register
// snapshot — from what the namenode expects of addr next, so tests about
// something other than sequencing stay in order.
func (nn *NameNode) nextReport(addr string, full bool) (seq, ep uint64) {
	nn.dnmu.RLock()
	defer nn.dnmu.RUnlock()
	dn := nn.datanodes[addr]
	if dn == nil {
		return 1, 1
	}
	if full {
		return dn.nextSeq, dn.epoch + 1
	}
	return dn.nextSeq, dn.epoch
}

func (nn *NameNode) register(req dfs.RegisterReq) (dfs.RegisterResp, error) {
	req.Seq, req.Epoch = nn.nextReport(req.Addr, true)
	return nn.handleRegister(req)
}

func (nn *NameNode) heartbeat(req dfs.HeartbeatReq) (dfs.HeartbeatResp, error) {
	req.Seq, req.Epoch = nn.nextReport(req.Addr, false)
	return nn.handleHeartbeat(req)
}

// addBlock allocates one block of size bytes, the way a writer with a
// single block in flight asks for it.
func addBlock(nn *NameNode, path string, size int64) (dfs.LocatedBlock, error) {
	resp, err := nn.handleAddBlocks(dfs.AddBlocksReq{Path: path, Sizes: []int64{size}})
	if err != nil {
		return dfs.LocatedBlock{}, err
	}
	return resp.Located[0], nil
}

// retargeted allocates one block of size bytes, then re-places it
// avoiding exclude, the way a writer whose pipeline failed retries it.
func retargeted(nn *NameNode, path string, size int64, exclude ...string) (dfs.LocatedBlock, error) {
	lb, err := addBlock(nn, path, size)
	if err != nil {
		return lb, err
	}
	resp, err := nn.handleRetargetBlock(dfs.RetargetBlockReq{Path: path, Block: lb.Block.ID, Exclude: exclude})
	return resp.Located, err
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
		if _, err := addBlock(h.nn, path, 1<<20); err != nil {
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

// deleteLog wraps a network so that every dn.deleteBlocks call is
// recorded, by destination, in the order it was sent.
type deleteLog struct {
	transport.Network
	mu    sync.Mutex
	calls []string
}

func (n *deleteLog) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &deleteLogConn{Conn: c, n: n, addr: addr}, nil
}

type deleteLogConn struct {
	transport.Conn
	n    *deleteLog
	addr string
}

func (c *deleteLogConn) Send(m transport.Message) error {
	if m.Method == "dn.deleteBlocks" {
		c.n.mu.Lock()
		c.n.calls = append(c.n.calls, c.addr)
		c.n.mu.Unlock()
	}
	return c.Conn.Send(m)
}

// A delete tells the file's holders in address order, never map order:
// the fan-out is an input to every virtual-clock run that deletes a
// file, and such a run must replay. Ten runs of three deletes each over
// five holders: map order passes one delete at most one time in five.
func TestDeleteTellsHoldersInAddressOrder(t *testing.T) {
	for r := 0; r < 10; r++ {
		run(t, func(v *simclock.Virtual) {
			rec := &deleteLog{Network: transport.NewInmemNetwork(v)}
			h := &harness{v: v, nn: New(v, rec, Config{Addr: "nn", Seed: int64(r)})}
			if err := h.nn.Start(); err != nil {
				t.Fatalf("start: %v", err)
			}
			defer h.nn.Close()
			for i := 0; i < 5; i++ {
				addr := fmt.Sprintf("dn%d", i)
				l, err := rec.Listen(addr)
				if err != nil {
					t.Fatalf("listen: %v", err)
				}
				srv := transport.NewServer(v)
				srv.Handle("dn.deleteBlocks", func(any) (any, error) { return dfs.DeleteBlocksResp{}, nil })
				srv.ServeBackground(l)
				defer srv.Close()
				defer l.Close()
				if _, err := h.nn.register(dfs.RegisterReq{Addr: addr}); err != nil {
					t.Fatalf("register: %v", err)
				}
			}
			for f := 0; f < 3; f++ {
				path := fmt.Sprintf("/del/%d", f)
				var want []string
				for _, lb := range h.mkFile(t, path, 8, 3) {
					want = append(want, lb.Nodes...)
				}
				slices.Sort(want)
				want = slices.Compact(want)
				rec.calls = nil
				if _, err := h.nn.handleDelete(dfs.DeleteReq{Path: path}); err != nil {
					t.Fatalf("delete: %v", err)
				}
				if !slices.Equal(rec.calls, want) {
					t.Fatalf("run %d, %s: dn.deleteBlocks went to %v, want %v", r, path, rec.calls, want)
				}
			}
		})
	}
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
		if _, err := addBlock(h.nn, "/f", 1); err == nil {
			t.Error("addBlock on sealed file accepted")
		}
		// Oversized block rejected.
		if _, err := h.nn.handleCreate(dfs.CreateReq{Path: "/g", BlockSize: 10}); err != nil {
			t.Fatal(err)
		}
		if _, err := addBlock(h.nn, "/g", 11); err == nil {
			t.Error("oversized block accepted")
		}
		if _, err := addBlock(h.nn, "/g", 0); err == nil {
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
		if _, err := addBlock(h.nn, "/f", 1); err == nil ||
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
				if _, err := h.nn.heartbeat(dfs.HeartbeatReq{Addr: "a"}); err != nil {
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
		if _, err := h.nn.heartbeat(dfs.HeartbeatReq{Addr: "ghost"}); err == nil {
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
		if _, err := h.nn.heartbeat(dfs.HeartbeatReq{Addr: node, Pinned: []dfs.BlockID{id}}); err != nil {
			t.Fatal(err)
		}
		lbs, _ = h.nn.Resolve("/f")
		if lbs[0].Nodes[0] != node || !slices.Equal(lbs[0].Tiers, []dfs.Tier{dfs.TierRAM, dfs.TierHDD}) {
			t.Errorf("nodes %v tiers %v, want %s at RAM", lbs[0].Nodes, lbs[0].Tiers, node)
		}
		if _, err := h.nn.heartbeat(dfs.HeartbeatReq{Addr: node, Unpinned: []dfs.BlockID{id}}); err != nil {
			t.Fatal(err)
		}
		lbs, _ = h.nn.Resolve("/f")
		if lbs[0].Tiers != nil {
			t.Errorf("tiers after unpin = %v, want none", lbs[0].Tiers)
		}
	})
}

// Each located replica carries its fastest tier, and only holders have
// one: a RAM pin and an SSD copy come back on their holders, a node at
// both ranks at RAM, a dead holder drops out with its tier, and a pin
// heartbeated by a node that holds no replica is not listed.
func TestLocationsRankReplicasByTier(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 4)
		defer h.nn.Close()
		lbs := h.mkFile(t, "/f", 1, 3)
		id, holders := lbs[0].Block.ID, lbs[0].Nodes
		var stranger string
		for _, a := range []string{"a", "b", "c", "d"} {
			if !slices.Contains(holders, a) {
				stranger = a
			}
		}
		pins := []dfs.HeartbeatReq{
			{Addr: holders[0], Pinned: []dfs.BlockID{id}, SSDPinned: []dfs.BlockID{id}},
			{Addr: holders[1], SSDPinned: []dfs.BlockID{id}},
			{Addr: stranger, Pinned: []dfs.BlockID{id}, SSDPinned: []dfs.BlockID{id}},
		}
		for _, hb := range pins {
			if _, err := h.nn.heartbeat(hb); err != nil {
				t.Fatal(err)
			}
		}
		check := func(when string, nodes []string, tiers []dfs.Tier) {
			t.Helper()
			resp, err := h.nn.handleGetLocations(dfs.GetLocationsReq{Path: "/f"})
			if err != nil || len(resp.Blocks) != 1 {
				t.Fatalf("%s: %d blocks, err %v", when, len(resp.Blocks), err)
			}
			lb := resp.Blocks[0]
			if !slices.Equal(lb.Nodes, nodes) || !slices.Equal(lb.Tiers, tiers) || (tiers == nil) != (lb.Tiers == nil) {
				t.Errorf("%s: nodes %v tiers %v, want %v %v", when, lb.Nodes, lb.Tiers, nodes, tiers)
			}
		}
		check("all live", holders, []dfs.Tier{dfs.TierRAM, dfs.TierSSD, dfs.TierHDD})
		setAlive := func(addr string, alive bool) {
			h.nn.dnmu.Lock()
			h.nn.datanodes[addr].alive = alive
			h.nn.dnmu.Unlock()
		}
		// Straight after expiry, before the dead node's pins are dropped.
		setAlive(holders[0], false)
		check("RAM holder dead", holders[1:], []dfs.Tier{dfs.TierSSD, dfs.TierHDD})
		setAlive(holders[1], false)
		check("fast holders dead", holders[2:], nil)
		setAlive(holders[0], true)
		setAlive(holders[1], true)
		check("revived", holders, []dfs.Tier{dfs.TierRAM, dfs.TierSSD, dfs.TierHDD})
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

	// Replicas land on live nodes only: with "c" silent past the expiry,
	// replication 3 puts each block on the two nodes still heartbeating.
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 3)
		defer h.nn.Close()
		stop := simclock.NewChan[struct{}](v)
		v.Go(func() {
			for {
				if _, _, timedOut := stop.RecvTimeout(time.Second); !timedOut {
					return
				}
				for _, addr := range []string{"a", "b"} {
					if _, err := h.nn.heartbeat(dfs.HeartbeatReq{Addr: addr}); err != nil {
						return
					}
				}
			}
		})
		v.Sleep(8 * time.Second)
		if _, err := h.nn.handleCreate(dfs.CreateReq{Path: "/live", Replication: 3}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			lb, err := addBlock(h.nn, "/live", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if len(lb.Nodes) != 2 || lb.Nodes[0] == lb.Nodes[1] || slices.Contains(lb.Nodes, "c") {
				t.Errorf("block %d placed on %v, want a and b", lb.Block.ID, lb.Nodes)
			}
		}
		stop.Send(struct{}{})
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
						if _, err := addBlock(h.nn, path, 1<<20); err != nil {
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
// deltas and full-inventory re-registrations mutate the registry and
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
		// rejects it with dfs.ErrBusy, backing off as a datanode does. The
		// test checks the registry lock split, not the gate.
		retryBusy := func(call func() error) error {
			for {
				if err := call(); !errors.Is(err, dfs.ErrBusy) {
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
		// Registry writers: heartbeats flipping pin state and
		// full-inventory re-registrations.
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
					if _, err := h.nn.heartbeat(req); err != nil {
						t.Errorf("heartbeat: %v", err)
						return
					}
					if i%10 == 0 {
						if err := retryBusy(func() error {
							_, err := h.nn.register(dfs.RegisterReq{Addr: addr, Blocks: ids})
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
		// register claimed all of /hot's blocks, so each block ends with
		// all four locations.
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
