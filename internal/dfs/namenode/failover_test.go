package namenode

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
)

func TestRetargetExcludeAvoidsNodes(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 4) // a b c d
		defer h.nn.Close()
		if _, err := h.nn.handleCreate(dfs.CreateReq{Path: "/f", Replication: 2}); err != nil {
			t.Fatalf("create: %v", err)
		}
		for i := 0; i < 10; i++ {
			lb, err := retargeted(h.nn, "/f", 1<<20, "a", "b")
			if err != nil {
				t.Fatalf("retarget: %v", err)
			}
			for _, n := range lb.Nodes {
				if n == "a" || n == "b" {
					t.Fatalf("excluded node %s chosen: %v", n, lb.Nodes)
				}
			}
			if len(lb.Nodes) != 2 {
				t.Fatalf("targets = %v, want 2 of {c,d}", lb.Nodes)
			}
		}
	})
}

func TestExcludeIgnoredWhenNoCandidatesRemain(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 2)
		defer h.nn.Close()
		if _, err := h.nn.handleCreate(dfs.CreateReq{Path: "/f", Replication: 2}); err != nil {
			t.Fatalf("create: %v", err)
		}
		lb, err := retargeted(h.nn, "/f", 1<<20, "a", "b")
		if err != nil {
			t.Fatalf("retarget with total exclusion should fall back, got %v", err)
		}
		if len(lb.Nodes) != 2 {
			t.Fatalf("targets = %v, want both nodes despite exclusion", lb.Nodes)
		}
	})
}

func TestAddBlockReqIDRetryReturnsSameAllocation(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 3)
		defer h.nn.Close()
		if _, err := h.nn.handleCreate(dfs.CreateReq{Path: "/f", Replication: 2}); err != nil {
			t.Fatalf("create: %v", err)
		}
		one := []int64{1 << 20}
		first, err := h.nn.handleAddBlocks(dfs.AddBlocksReq{Path: "/f", Sizes: one, ReqID: 7})
		if err != nil {
			t.Fatalf("addBlock: %v", err)
		}
		retry, err := h.nn.handleAddBlocks(dfs.AddBlocksReq{Path: "/f", Sizes: one, ReqID: 7})
		if err != nil {
			t.Fatalf("retry: %v", err)
		}
		if !reflect.DeepEqual(first, retry) {
			t.Fatalf("retry allocated differently:\nfirst: %+v\nretry: %+v", first, retry)
		}
		info, err := h.nn.handleGetInfo(dfs.GetInfoReq{Path: "/f"})
		if err != nil || info.Info.Size != 1<<20 {
			t.Fatalf("size = %d, %v — retry double-allocated", info.Info.Size, err)
		}
		// A genuinely new request ID allocates the next block.
		next, err := h.nn.handleAddBlocks(dfs.AddBlocksReq{Path: "/f", Sizes: one, ReqID: 8})
		if err != nil || next.Located[0].Block.ID == first.Located[0].Block.ID {
			t.Fatalf("next alloc = %+v, %v", next, err)
		}
	})
}

func TestAddBlocksReqIDRetryReturnsSameBatch(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 3)
		defer h.nn.Close()
		if _, err := h.nn.handleCreate(dfs.CreateReq{Path: "/f", Replication: 2}); err != nil {
			t.Fatalf("create: %v", err)
		}
		sizes := []int64{1 << 20, 1 << 19}
		first, err := h.nn.handleAddBlocks(dfs.AddBlocksReq{Path: "/f", Sizes: sizes, ReqID: 11})
		if err != nil {
			t.Fatalf("addBlocks: %v", err)
		}
		retry, err := h.nn.handleAddBlocks(dfs.AddBlocksReq{Path: "/f", Sizes: sizes, ReqID: 11})
		if err != nil {
			t.Fatalf("retry: %v", err)
		}
		if !reflect.DeepEqual(first, retry) {
			t.Fatalf("batch retry allocated differently:\nfirst: %+v\nretry: %+v", first, retry)
		}
		info, _ := h.nn.handleGetInfo(dfs.GetInfoReq{Path: "/f"})
		if want := int64(1<<20 + 1<<19); info.Info.Size != want {
			t.Fatalf("size = %d, want %d — batch retry double-allocated", info.Info.Size, want)
		}
	})
}

func TestRetargetBlockKeepsIDAndOffset(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 4)
		defer h.nn.Close()
		if _, err := h.nn.handleCreate(dfs.CreateReq{Path: "/f", Replication: 2}); err != nil {
			t.Fatalf("create: %v", err)
		}
		var lbs []dfs.LocatedBlock
		for i := 0; i < 3; i++ {
			lb, err := addBlock(h.nn, "/f", 1<<20)
			if err != nil {
				t.Fatalf("addBlock: %v", err)
			}
			lbs = append(lbs, lb)
		}
		victim := lbs[1]
		resp, err := h.nn.handleRetargetBlock(dfs.RetargetBlockReq{
			Path: "/f", Block: victim.Block.ID, Exclude: victim.Nodes,
		})
		if err != nil {
			t.Fatalf("retargetBlock: %v", err)
		}
		got := resp.Located
		if got.Block.ID != victim.Block.ID || got.Offset != victim.Offset || got.Block.Size != victim.Block.Size {
			t.Fatalf("retarget changed identity: %+v vs %+v", got, victim)
		}
		old := map[string]bool{}
		for _, n := range victim.Nodes {
			old[n] = true
		}
		for _, n := range got.Nodes {
			if old[n] {
				t.Fatalf("retarget reused excluded node %s: %v", n, got.Nodes)
			}
		}
		if len(got.Nodes) != 2 {
			t.Fatalf("retarget targets = %v, want 2", got.Nodes)
		}
		// The namespace now reports the new targets for that block only.
		all, err := h.nn.Resolve("/f")
		if err != nil {
			t.Fatalf("resolve: %v", err)
		}
		wantNodes := append([]string(nil), got.Nodes...)
		sort.Strings(wantNodes)
		if !reflect.DeepEqual(all[1].Nodes, wantNodes) {
			t.Fatalf("resolved nodes = %v, want %v", all[1].Nodes, wantNodes)
		}
		untouched := append([]string(nil), lbs[0].Nodes...)
		sort.Strings(untouched)
		if !reflect.DeepEqual(all[0].Nodes, untouched) {
			t.Fatalf("untouched block 0 moved: %v vs %v", all[0].Nodes, lbs[0].Nodes)
		}

		if _, err := h.nn.handleRetargetBlock(dfs.RetargetBlockReq{Path: "/f", Block: 999}); err == nil {
			t.Fatalf("retarget of unknown block succeeded")
		}
		if _, err := h.nn.handleRetargetBlock(dfs.RetargetBlockReq{Path: "/nope", Block: victim.Block.ID}); err == nil {
			t.Fatalf("retarget on unknown file succeeded")
		}
	})
}

// Satellite: a datanode that was declared dead and re-registers with its
// block report must return to placement rotation with its replicas
// counted exactly once, even if it registers repeatedly.
func TestReRegistrationRestoresNodeWithoutDuplicateReplicas(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 3) // expiry 5s, sweep 1s
		defer h.nn.Close()
		lbs := h.mkFile(t, "/f", 4, 3) // every node holds every block
		heldByA := []dfs.BlockID{}
		for _, lb := range lbs {
			heldByA = append(heldByA, lb.Block.ID)
		}

		// Keep b and c alive while a goes silent past the expiry.
		for i := 0; i < 7; i++ {
			v.Sleep(time.Second)
			for _, addr := range []string{"b", "c"} {
				if _, err := h.nn.heartbeat(dfs.HeartbeatReq{Addr: addr}); err != nil {
					t.Fatalf("heartbeat %s: %v", addr, err)
				}
			}
		}
		if live := h.nn.LiveDataNodes(); !reflect.DeepEqual(live, []string{"b", "c"}) {
			t.Fatalf("live = %v, want [b c] after a's heartbeats stop", live)
		}
		for _, lb := range mustResolve(t, h, "/f") {
			if !reflect.DeepEqual(lb.Nodes, []string{"b", "c"}) {
				t.Fatalf("dead node still reported: %v", lb.Nodes)
			}
		}

		// a comes back (twice — re-registration must be idempotent).
		for i := 0; i < 2; i++ {
			if _, err := h.nn.register(dfs.RegisterReq{Addr: "a", Blocks: heldByA}); err != nil {
				t.Fatalf("re-register: %v", err)
			}
		}
		if live := h.nn.LiveDataNodes(); !reflect.DeepEqual(live, []string{"a", "b", "c"}) {
			t.Fatalf("live = %v, want [a b c] after re-registration", live)
		}
		for _, lb := range mustResolve(t, h, "/f") {
			if !reflect.DeepEqual(lb.Nodes, []string{"a", "b", "c"}) {
				t.Fatalf("replica accounting after re-registration: %v", lb.Nodes)
			}
		}

		// Back in placement rotation: a block re-placed away from b and c
		// can only land on a.
		if _, err := h.nn.handleCreate(dfs.CreateReq{Path: "/g", Replication: 1}); err != nil {
			t.Fatalf("create: %v", err)
		}
		lb, err := retargeted(h.nn, "/g", 1<<20, "b", "c")
		if err != nil || !reflect.DeepEqual(lb.Nodes, []string{"a"}) {
			t.Fatalf("placement after re-registration = %v, %v (want [a])", lb.Nodes, err)
		}
	})
}

func mustResolve(t *testing.T, h *harness, path string) []dfs.LocatedBlock {
	t.Helper()
	lbs, err := h.nn.Resolve(path)
	if err != nil {
		t.Fatalf("resolve %s: %v", path, err)
	}
	return lbs
}
