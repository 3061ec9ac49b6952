package namenode

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
)

// nodesOf resolves a path and returns block 0's live replica addresses.
func nodesOf(t *testing.T, nn *NameNode, path string) []string {
	t.Helper()
	lbs, err := nn.Resolve(path)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if len(lbs) == 0 {
		t.Fatalf("resolve %s: no blocks", path)
	}
	return lbs[0].Nodes
}

func hasAddr(nodes []string, addr string) bool {
	for _, n := range nodes {
		if n == addr {
			return true
		}
	}
	return false
}

// TestIncrementalReportAppliesDeltas covers the steady state: block
// add/remove deltas riding heartbeats update the replica map without a
// full report, and in-sequence heartbeats never trigger a resync.
func TestIncrementalReportAppliesDeltas(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 0)
		defer h.nn.Close()
		for _, addr := range []string{"a", "b", "c"} {
			if _, err := h.nn.handleRegister(dfs.RegisterReq{Addr: addr, Seq: 1, Epoch: 1}); err != nil {
				t.Fatalf("register %s: %v", addr, err)
			}
		}
		lbs := h.mkFile(t, "/f", 1, 2)
		id := lbs[0].Block.ID
		// Find a node that did NOT get the block at allocation.
		outsider := ""
		for _, addr := range []string{"a", "b", "c"} {
			if !hasAddr(lbs[0].Nodes, addr) {
				outsider = addr
			}
		}
		if outsider == "" {
			t.Fatal("all nodes hold the block; want an outsider")
		}
		resp, err := h.nn.handleHeartbeat(dfs.HeartbeatReq{
			Addr: outsider, Seq: 2, Epoch: 1, Added: []dfs.BlockID{id},
		})
		if err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		if resp.NeedFullReport {
			t.Fatal("in-sequence delta heartbeat asked for a full report")
		}
		if !hasAddr(nodesOf(t, h.nn, "/f"), outsider) {
			t.Fatalf("added delta not applied: %s missing from %v", outsider, nodesOf(t, h.nn, "/f"))
		}
		// Remove it again via a delta.
		if _, err := h.nn.handleHeartbeat(dfs.HeartbeatReq{
			Addr: outsider, Seq: 3, Epoch: 1, Removed: []dfs.BlockID{id},
		}); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		if hasAddr(nodesOf(t, h.nn, "/f"), outsider) {
			t.Fatalf("removed delta not applied: %s still in %v", outsider, nodesOf(t, h.nn, "/f"))
		}
		st := h.nn.Stats()
		if st.ResyncRequests != 0 {
			t.Fatalf("steady-state deltas triggered %d resyncs", st.ResyncRequests)
		}
		if st.DeltaBlocksAdded != 1 || st.DeltaBlocksRemoved != 1 {
			t.Fatalf("delta counters = %d/%d, want 1/1", st.DeltaBlocksAdded, st.DeltaBlocksRemoved)
		}
	})
}

// TestSequenceGapRequestsResync: a skipped sequence number means a
// report was lost; the namenode must ask for a full snapshot while
// still applying the deltas that did arrive.
func TestSequenceGapRequestsResync(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 0)
		defer h.nn.Close()
		for _, addr := range []string{"a", "b"} {
			if _, err := h.nn.handleRegister(dfs.RegisterReq{Addr: addr, Seq: 1, Epoch: 1}); err != nil {
				t.Fatalf("register: %v", err)
			}
		}
		lbs := h.mkFile(t, "/f", 1, 1)
		id := lbs[0].Block.ID
		outsider := "a"
		if hasAddr(lbs[0].Nodes, "a") {
			outsider = "b"
		}
		// Seq 2 is expected next; jump to 4 as if seq-2 and seq-3
		// heartbeats were lost.
		resp, err := h.nn.handleHeartbeat(dfs.HeartbeatReq{
			Addr: outsider, Seq: 4, Epoch: 1, Added: []dfs.BlockID{id},
		})
		if err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		if !resp.NeedFullReport {
			t.Fatal("sequence gap did not request a full report")
		}
		if got := h.nn.Stats().ResyncRequests; got != 1 {
			t.Fatalf("ResyncRequests = %d, want 1", got)
		}
		// The delta that did arrive still applies.
		if !hasAddr(nodesOf(t, h.nn, "/f"), outsider) {
			t.Fatal("gap heartbeat's delta was discarded")
		}
		// The gap re-anchors: the next in-sequence heartbeat is clean.
		resp, err = h.nn.handleHeartbeat(dfs.HeartbeatReq{Addr: outsider, Seq: 5, Epoch: 1})
		if err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		if resp.NeedFullReport {
			t.Fatal("in-sequence heartbeat after re-anchor still asks for full report")
		}
	})
}

// TestStaleEpochDeltasSkipped: deltas tagged with an epoch older than
// the last reconciled snapshot could resurrect state the snapshot
// removed, so they must be dropped wholesale.
func TestStaleEpochDeltasSkipped(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 0)
		defer h.nn.Close()
		for _, addr := range []string{"a", "b"} {
			if _, err := h.nn.handleRegister(dfs.RegisterReq{Addr: addr, Seq: 1, Epoch: 1}); err != nil {
				t.Fatalf("register: %v", err)
			}
		}
		lbs := h.mkFile(t, "/f", 1, 1)
		id := lbs[0].Block.ID
		outsider := "a"
		if hasAddr(lbs[0].Nodes, "a") {
			outsider = "b"
		}
		// The outsider's register at epoch 2 says it holds nothing.
		if _, err := h.nn.handleRegister(dfs.RegisterReq{Addr: outsider, Seq: 2, Epoch: 2}); err != nil {
			t.Fatalf("register: %v", err)
		}
		// A straggler delta from epoch 1 claims it holds the block. It
		// must be skipped: the epoch-2 snapshot supersedes it.
		resp, err := h.nn.handleHeartbeat(dfs.HeartbeatReq{
			Addr: outsider, Seq: 3, Epoch: 1, Added: []dfs.BlockID{id},
		})
		if err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		if !resp.NeedFullReport {
			t.Fatal("stale-epoch heartbeat did not request a full report")
		}
		if hasAddr(nodesOf(t, h.nn, "/f"), outsider) {
			t.Fatal("stale-epoch delta was applied; snapshot state resurrected")
		}
	})
}

// TestDuplicateFullReportIdempotent: a retried register (same seq, same
// epoch, same inventory) leaves the replica map unchanged.
func TestDuplicateFullReportIdempotent(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 0)
		defer h.nn.Close()
		for _, addr := range []string{"a", "b", "c"} {
			if _, err := h.nn.handleRegister(dfs.RegisterReq{Addr: addr, Seq: 1, Epoch: 1}); err != nil {
				t.Fatalf("register: %v", err)
			}
		}
		lbs := h.mkFile(t, "/f", 2, 2)
		holder := lbs[0].Nodes[0]
		inventory := []dfs.BlockID{lbs[0].Block.ID, lbs[1].Block.ID}
		before := nodesOf(t, h.nn, "/f")
		for i := 0; i < 2; i++ {
			if _, err := h.nn.handleRegister(dfs.RegisterReq{
				Addr: holder, Blocks: inventory, Seq: 7, Epoch: 2,
			}); err != nil {
				t.Fatalf("register %d: %v", i, err)
			}
			after := nodesOf(t, h.nn, "/f")
			if !hasAddr(after, holder) {
				t.Fatalf("report %d: holder %s lost from %v (before %v)", i, holder, after, before)
			}
		}
		// A heartbeat continuing the duplicate's sequence is in order.
		resp, err := h.nn.handleHeartbeat(dfs.HeartbeatReq{Addr: holder, Seq: 8, Epoch: 2})
		if err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		if resp.NeedFullReport {
			t.Fatal("duplicate full report broke the sequence anchor")
		}
	})
}

// TestReportIntakeBusy: with the intake gate saturated, registers from
// new and known datanodes bounce with dfs.ErrBusy — heartbeats (deltas)
// never do.
func TestReportIntakeBusy(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 1)
		defer h.nn.Close()
		// Saturate the gate from the outside (as concurrent reconciles
		// would).
		for i := 0; i < cap(h.nn.intake); i++ {
			h.nn.intake <- struct{}{}
		}
		if _, err := h.nn.handleRegister(dfs.RegisterReq{Addr: "z", Seq: 1, Epoch: 1}); !errors.Is(err, dfs.ErrBusy) {
			t.Fatalf("register under saturated intake: err = %v, want busy", err)
		}
		if _, err := h.nn.handleRegister(dfs.RegisterReq{Addr: "a", Seq: 1, Epoch: 1}); !errors.Is(err, dfs.ErrBusy) {
			t.Fatalf("re-register under saturated intake: err = %v, want busy", err)
		}
		// Delta heartbeats are never gated: freshness must survive a
		// reconnect storm.
		if _, err := h.nn.heartbeat(dfs.HeartbeatReq{Addr: "a"}); err != nil {
			t.Fatalf("heartbeat under saturated intake: %v", err)
		}
		if got := h.nn.Stats().BusyRejects; got != 2 {
			t.Fatalf("BusyRejects = %d, want 2", got)
		}
		// Drain the gate; reports flow again.
		for i := 0; i < cap(h.nn.intake); i++ {
			<-h.nn.intake
		}
		if _, err := h.nn.handleRegister(dfs.RegisterReq{Addr: "z", Seq: 1, Epoch: 1}); err != nil {
			t.Fatalf("register after drain: %v", err)
		}
	})
}

// TestFullReportRefreshesLiveness: a register proves the node is alive
// just as a heartbeat does — an expired node sending its resync snapshot
// comes back live.
func TestFullReportRefreshesLiveness(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 2)
		defer h.nn.Close()
		// Keep "b" alive while "a" expires (harness expiry is 5s).
		for i := 0; i < 8; i++ {
			v.Sleep(time.Second)
			if _, err := h.nn.heartbeat(dfs.HeartbeatReq{Addr: "b"}); err != nil {
				t.Fatalf("heartbeat: %v", err)
			}
		}
		if live := h.nn.LiveDataNodes(); len(live) != 1 || live[0] != "b" {
			t.Fatalf("live = %v, want [b]", live)
		}
		if _, err := h.nn.handleRegister(dfs.RegisterReq{Addr: "a", Seq: 9, Epoch: 2}); err != nil {
			t.Fatalf("register: %v", err)
		}
		if live := h.nn.LiveDataNodes(); len(live) != 2 {
			t.Fatalf("live after register = %v, want both", live)
		}
	})
}

// TestUnsequencedReportsRejected: datanodes number every report from 1,
// so a register from a new or known datanode, or a heartbeat, with Seq 0
// is answered with an error and changes nothing — not the registry (membership,
// liveness, sequence, epoch), not the block and pin state, not a
// counter.
func TestUnsequencedReportsRejected(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		h := newHarness(t, v, 3)
		defer h.nn.Close()
		lbs := h.mkFile(t, "/f", 1, 2)
		id := lbs[0].Block.ID
		outsider := ""
		for _, addr := range []string{"a", "b", "c"} {
			if !hasAddr(lbs[0].Nodes, addr) {
				outsider = addr
			}
		}
		type snapshot struct {
			registry map[string]dnInfo
			blocks   []dfs.LocatedBlock
			stats    Stats
		}
		take := func() snapshot {
			s := snapshot{registry: map[string]dnInfo{}, stats: h.nn.Stats()}
			h.nn.dnmu.RLock()
			for addr, dn := range h.nn.datanodes {
				info := *dn
				info.client = nil
				s.registry[addr] = info
			}
			h.nn.dnmu.RUnlock()
			var err error
			if s.blocks, err = h.nn.Resolve("/f"); err != nil {
				t.Fatalf("resolve: %v", err)
			}
			return s
		}
		before := take()
		// An accepted report would move lastSeen.
		v.Sleep(100 * time.Millisecond)
		if _, err := h.nn.handleRegister(dfs.RegisterReq{Addr: "z", Blocks: []dfs.BlockID{id}, Epoch: 1}); err == nil {
			t.Error("unsequenced register accepted")
		}
		if _, err := h.nn.handleHeartbeat(dfs.HeartbeatReq{
			Addr: outsider, Epoch: 1, Added: []dfs.BlockID{id}, Pinned: []dfs.BlockID{id}, SSDPinned: []dfs.BlockID{id},
		}); err == nil {
			t.Error("unsequenced heartbeat accepted")
		}
		if _, err := h.nn.handleRegister(dfs.RegisterReq{Addr: outsider, Blocks: []dfs.BlockID{id}, Epoch: 2}); err == nil {
			t.Error("unsequenced re-register accepted")
		}
		if after := take(); !reflect.DeepEqual(after, before) {
			t.Errorf("rejected reports changed state:\nbefore %+v\nafter  %+v", before, after)
		}
	})
}
