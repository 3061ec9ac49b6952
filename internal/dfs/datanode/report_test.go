package datanode

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// drainHeartbeat builds the next heartbeat the loop would send,
// bypassing the timer.
func drainHeartbeat(dn *DataNode) dfs.HeartbeatReq {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	req, _ := dn.buildHeartbeatLocked()
	return req
}

// TestPinDeltaCollapse: a block pinned then unpinned between heartbeats
// ships as a single unpin entry, and the collapse must not suppress the
// send itself — pinDirty still marks the report due.
func TestPinDeltaCollapse(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{})
		defer nn.Close()
		defer dn.Close()

		dn.onPinChange(7, dfs.TierRAM, true)
		dn.onPinChange(7, dfs.TierRAM, false)
		dn.onPinChange(9, dfs.TierRAM, true)

		dn.mu.Lock()
		dirty := dn.pinDirty
		dn.mu.Unlock()
		if !dirty {
			t.Fatal("pin events did not mark the heartbeat due")
		}
		req := drainHeartbeat(dn)
		if len(req.Pinned) != 1 || req.Pinned[0] != 9 {
			t.Errorf("Pinned = %v, want [9]", req.Pinned)
		}
		if len(req.Unpinned) != 1 || req.Unpinned[0] != 7 {
			t.Errorf("Unpinned = %v, want [7] (pin+unpin collapsed to net unpin)", req.Unpinned)
		}
		// Re-pinning collapses the other way: net pin, no unpin entry.
		dn.onPinChange(7, dfs.TierRAM, false)
		dn.onPinChange(7, dfs.TierRAM, true)
		req = drainHeartbeat(dn)
		if len(req.Pinned) != 1 || req.Pinned[0] != 7 || len(req.Unpinned) != 0 {
			t.Errorf("Pinned/Unpinned = %v/%v, want [7]/[]", req.Pinned, req.Unpinned)
		}
		// Draining cleared the pending state.
		req = drainHeartbeat(dn)
		if len(req.Pinned)+len(req.Unpinned) != 0 {
			t.Errorf("drained heartbeat still carries %v/%v", req.Pinned, req.Unpinned)
		}
	})
}

// TestBlockDeltaCollapse: write/delete churn between heartbeats nets
// out, and the surviving deltas arrive sorted.
func TestBlockDeltaCollapse(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{})
		defer nn.Close()
		defer dn.Close()

		for _, id := range []dfs.BlockID{5, 3, 8} {
			if _, err := dn.handleWriteBlock(dfs.WriteBlockReq{Block: dfs.Block{ID: id, Size: 1024}}); err != nil {
				t.Fatal(err)
			}
		}
		// 8 written then deleted: nets to a removal. 2 never held: its
		// delete also reports a removal (idempotent at the namenode).
		if _, err := dn.handleDeleteBlocks(dfs.DeleteBlocksReq{Blocks: []dfs.BlockID{8, 2}}); err != nil {
			t.Fatal(err)
		}
		req := drainHeartbeat(dn)
		if len(req.Added) != 2 || req.Added[0] != 3 || req.Added[1] != 5 {
			t.Errorf("Added = %v, want sorted [3 5]", req.Added)
		}
		if len(req.Removed) != 2 || req.Removed[0] != 2 || req.Removed[1] != 8 {
			t.Errorf("Removed = %v, want sorted [2 8]", req.Removed)
		}
	})
}

// TestReportSequenceNumbers: every report (the register included)
// consumes from one monotonic sequence, and a successful re-register
// advances the epoch.
func TestReportSequenceNumbers(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{})
		defer nn.Close()
		defer dn.Close()

		dn.mu.Lock()
		seqAfterRegister, epochAfterRegister := dn.seq, dn.epoch
		dn.mu.Unlock()
		if seqAfterRegister == 0 || epochAfterRegister != 1 {
			t.Fatalf("after register: seq=%d epoch=%d, want seq>0 epoch=1", seqAfterRegister, epochAfterRegister)
		}
		r1 := drainHeartbeat(dn)
		r2 := drainHeartbeat(dn)
		if r1.Seq != seqAfterRegister+1 || r2.Seq != r1.Seq+1 {
			t.Errorf("heartbeat seqs %d,%d after register seq %d: not consecutive", r1.Seq, r2.Seq, seqAfterRegister)
		}
		if r1.Epoch != epochAfterRegister {
			t.Errorf("heartbeat epoch %d, want register epoch %d", r1.Epoch, epochAfterRegister)
		}
		dn.mu.Lock()
		c := dn.nnClient
		dn.mu.Unlock()
		if err := dn.register(c); err != nil {
			t.Fatalf("re-register: %v", err)
		}
		dn.mu.Lock()
		epochAfterReregister := dn.epoch
		dn.mu.Unlock()
		if epochAfterReregister != epochAfterRegister+1 {
			t.Errorf("epoch after re-register = %d, want %d", epochAfterReregister, epochAfterRegister+1)
		}
	})
}

// TestRegisterDrivenByLoop runs the datanode against a fake namenode. A
// busy namenode does not fail Start: the heartbeat loop finishes
// registering after its backoff and sends no heartbeat before that.
// A rejected heartbeat makes the next report a register with a new
// epoch. A block delta drained into a failed register is subsumed by
// the snapshot and never resent as a delta.
func TestRegisterDrivenByLoop(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		// ids is a register's snapshot or a heartbeat's added deltas.
		type report struct {
			register bool
			epoch    uint64
			ids      []dfs.BlockID
		}
		var (
			mu       sync.Mutex
			reports  []report
			busy     = 2 // registers still to answer with dfs.ErrBusy
			rejectHB bool
		)
		net := transport.NewInmemNetwork(v)
		fake := transport.NewServer(v)
		fake.Handle("nn.register", func(arg any) (any, error) {
			req := arg.(dfs.RegisterReq)
			mu.Lock()
			defer mu.Unlock()
			reports = append(reports, report{register: true, epoch: req.Epoch, ids: req.Blocks})
			if busy > 0 {
				busy--
				return nil, dfs.ErrBusy
			}
			return dfs.RegisterResp{}, nil
		})
		fake.Handle("nn.heartbeat", func(arg any) (any, error) {
			req := arg.(dfs.HeartbeatReq)
			mu.Lock()
			defer mu.Unlock()
			reports = append(reports, report{epoch: req.Epoch, ids: req.Added})
			if rejectHB {
				rejectHB = false
				return nil, errors.New("fake namenode: heartbeat from unregistered dn0")
			}
			return dfs.HeartbeatResp{}, nil
		})
		l, err := net.Listen("nn")
		if err != nil {
			t.Fatal(err)
		}
		fake.ServeBackground(l)
		defer fake.Close()

		dn, err := New(v, net, Config{Addr: "dn0", NameNodeAddr: "nn"})
		if err != nil {
			t.Fatal(err)
		}
		// A replica stored before Start is a pending delta that the
		// first, busy register drains.
		if _, err := dn.handleWriteBlock(dfs.WriteBlockReq{Block: dfs.Block{ID: 5, Size: 64}}); err != nil {
			t.Fatal(err)
		}
		if err := dn.Start(); err != nil {
			t.Fatalf("Start against a busy namenode: %v", err)
		}
		defer dn.Close()
		mu.Lock()
		sent := len(reports)
		mu.Unlock()
		if sent != 1 {
			t.Fatalf("Start sent %d reports, want 1: the loop retries a busy register", sent)
		}

		// check asserts that reports open with registers, the last of
		// them accepted at epoch with block 5 in its snapshot, followed
		// by heartbeats at epoch that carry no block delta.
		check := func(phase string, got []report, registers int, epoch uint64) {
			t.Helper()
			if len(got) <= registers {
				t.Fatalf("%s: %d reports, want %d registers then heartbeats", phase, len(got), registers)
			}
			for i, r := range got {
				if r.register != (i < registers) {
					t.Fatalf("%s: report %d register=%v, want registers first: %+v", phase, i, r.register, got)
				}
				if i < registers-1 {
					continue
				}
				if r.epoch != epoch {
					t.Errorf("%s: report %d at epoch %d, want %d", phase, i, r.epoch, epoch)
				}
				if r.register && !slices.Equal(r.ids, []dfs.BlockID{5}) {
					t.Errorf("%s: register snapshot %v, want [5]", phase, r.ids)
				}
				if !r.register && len(r.ids) > 0 {
					t.Errorf("%s: heartbeat %d resends block deltas %v", phase, i, r.ids)
				}
			}
		}
		v.Sleep(10 * time.Second)
		mu.Lock()
		start := slices.Clone(reports)
		rejectHB = true
		mu.Unlock()
		check("start", start, 3, 1)

		v.Sleep(5 * time.Second)
		mu.Lock()
		resync := slices.Clone(reports[len(start):])
		mu.Unlock()
		if len(resync) == 0 || resync[0].register {
			t.Fatalf("after start: reports %+v, want the rejected heartbeat first", resync)
		}
		check("resync", resync[1:], 1, 2)
	})
}

// TestBusyBackoffWindow: repeated busy pushback widens the jittered
// sit-out window exponentially but never past the liveness expiry, and
// a success resets the streak.
func TestBusyBackoffWindow(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{})
		defer nn.Close()
		defer dn.Close()

		prevMax := 0
		for i := 1; i <= 5; i++ {
			dn.mu.Lock()
			dn.backoffLocked()
			skip, streak := dn.skipTicks, dn.busyStreak
			dn.mu.Unlock()
			base := 1 << min(i, 3)
			if skip < base || skip >= 2*base {
				t.Errorf("round %d: skipTicks = %d, want in [%d,%d)", i, skip, base, 2*base)
			}
			if skip > 16 {
				t.Errorf("round %d: skipTicks = %d exceeds the expiry-safe cap", i, skip)
			}
			if streak > 3 {
				t.Errorf("round %d: busyStreak = %d, want capped at 3", i, streak)
			}
			if skip > prevMax {
				prevMax = skip
			}
		}
		// A successful heartbeat resets the streak.
		dn.handleHeartbeatResult(nil, tierDeltas{}, false)
		dn.mu.Lock()
		streak := dn.busyStreak
		dn.mu.Unlock()
		if streak != 0 {
			t.Errorf("busyStreak after success = %d, want 0", streak)
		}
	})
}

// TestTransportFailureRequeuesDeltas: deltas drained into a lost report
// merge back, with events recorded after the drain taking precedence.
func TestTransportFailureRequeuesDeltas(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{})
		defer nn.Close()
		defer dn.Close()

		dn.onPinChange(4, dfs.TierRAM, true)
		if _, err := dn.handleWriteBlock(dfs.WriteBlockReq{Block: dfs.Block{ID: 11, Size: 64}}); err != nil {
			t.Fatal(err)
		}
		dn.mu.Lock()
		_, undo := dn.buildHeartbeatLocked()
		dn.mu.Unlock()
		// Before the failure lands, newer events arrive: 4 is unpinned.
		dn.onPinChange(4, dfs.TierRAM, false)
		dn.handleHeartbeatResult(errLost{}, undo, false)

		req := drainHeartbeat(dn)
		if len(req.Unpinned) != 1 || req.Unpinned[0] != 4 || len(req.Pinned) != 0 {
			t.Errorf("Pinned/Unpinned = %v/%v, want []/[4]: newer unpin must win over requeued pin", req.Pinned, req.Unpinned)
		}
		if len(req.Added) != 1 || req.Added[0] != 11 {
			t.Errorf("Added = %v, want requeued [11]", req.Added)
		}
	})
}

// errLost is a transport-shaped (non-remote) failure.
type errLost struct{}

func (errLost) Error() string { return "datanode test: report lost" }

// TestHeartbeatCycleAllocs pins the datanode's side of a heartbeat that
// succeeds: building it and handling the success allocates nothing when
// it carries no deltas, and only the ID list when it carries one, because
// the acknowledged delta maps are cleared and become the next pending
// ones. Run via `make bench-alloc`.
func TestHeartbeatCycleAllocs(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{})
		defer nn.Close()
		defer dn.Close()
		cycle := func() {
			dn.mu.Lock()
			_, undo := dn.buildHeartbeatLocked()
			dn.mu.Unlock()
			dn.handleHeartbeatResult(nil, undo, false)
		}
		idle := testing.AllocsPerRun(100, cycle)
		pinned := testing.AllocsPerRun(100, func() {
			dn.onPinChange(7, dfs.TierRAM, true)
			cycle()
		})
		t.Logf("%.1f allocations per idle heartbeat cycle, %.1f with one pin delta", idle, pinned)
		if idle > 0 {
			t.Errorf("idle heartbeat cycle allocates %.1f times, want 0", idle)
		}
		if pinned > 1 {
			t.Errorf("heartbeat cycle with one pin delta allocates %.1f times, want ≤ 1 (its Pinned list)", pinned)
		}
	})
}
