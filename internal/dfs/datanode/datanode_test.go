package datanode

import (
	"bytes"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dfs"
	"repro/internal/dfs/namenode"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
)

var epoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

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

// startPair brings up a namenode plus one datanode.
func startPair(t *testing.T, v *simclock.Virtual, cfg Config) (*namenode.NameNode, *DataNode) {
	t.Helper()
	net := transport.NewInmemNetwork(v)
	nn := namenode.New(v, net, namenode.Config{Addr: "nn", Seed: 1})
	if err := nn.Start(); err != nil {
		t.Fatalf("namenode: %v", err)
	}
	cfg.Addr = "dn0"
	cfg.NameNodeAddr = "nn"
	dn, err := New(v, net, cfg)
	if err != nil {
		t.Fatalf("datanode new: %v", err)
	}
	if err := dn.Start(); err != nil {
		t.Fatalf("datanode start: %v", err)
	}
	return nn, dn
}

func TestWriteAndReadRealBlock(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{})
		defer nn.Close()
		defer dn.Close()

		data := bytes.Repeat([]byte("x"), 4096)
		if _, err := dn.handleWriteBlock(dfs.WriteBlockReq{Block: dfs.Block{ID: 1, Size: 4096}, Data: data}); err != nil {
			t.Fatalf("write: %v", err)
		}
		if got := dn.store.Len(); got != 1 {
			t.Errorf("%d replicas stored, want 1", got)
		}
		resp, err := dn.handleReadBlock(dfs.ReadBlockReq{Block: 1, Job: "j"})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(resp.Data, data) || resp.FromMemory {
			t.Errorf("resp = size %d fromMemory %v", len(resp.Data), resp.FromMemory)
		}
	})
}

func TestSyntheticBlockReadChargesDeviceTime(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{Media: storage.HDDSpec()})
		defer nn.Close()
		defer dn.Close()
		size := int64(64 << 20)
		if _, err := dn.handleWriteBlock(dfs.WriteBlockReq{Block: dfs.Block{ID: 1, Size: size}}); err != nil {
			t.Fatal(err)
		}
		start := v.Now()
		resp, err := dn.handleReadBlock(dfs.ReadBlockReq{Block: 1})
		if err != nil {
			t.Fatal(err)
		}
		d := v.Now().Sub(start)
		if resp.Size != size || resp.Data != nil {
			t.Errorf("resp = %+v", resp)
		}
		// One uncontended 64MB HDD read ~ 540ms.
		if d < 400*time.Millisecond || d > 900*time.Millisecond {
			t.Errorf("synthetic read took %v", d)
		}
	})
}

func TestServeAllFromRAM(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{ServeAllFromRAM: true})
		defer nn.Close()
		defer dn.Close()
		if _, err := dn.handleWriteBlock(dfs.WriteBlockReq{Block: dfs.Block{ID: 1, Size: 64 << 20}}); err != nil {
			t.Fatal(err)
		}
		start := v.Now()
		if _, err := dn.handleReadBlock(dfs.ReadBlockReq{Block: 1}); err != nil {
			t.Fatal(err)
		}
		if d := v.Now().Sub(start); d > 200*time.Millisecond {
			t.Errorf("vmtouch-mode read took %v", d)
		}
	})
}

func TestMigrateBatchPinsAndHeartbeatReports(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{})
		defer nn.Close()
		defer dn.Close()
		if _, err := dn.handleWriteBlock(dfs.WriteBlockReq{Block: dfs.Block{ID: 7, Size: 8 << 20}}); err != nil {
			t.Fatal(err)
		}
		dn.handleMigrateBatch(dfs.MigrateBatch{Epoch: 1, Cmds: []dfs.MigrateCmd{{
			Block: dfs.Block{ID: 7, Size: 8 << 20}, Job: "j", JobInputSize: 8 << 20, SubmitTime: v.Now(), Tier: dfs.TierRAM,
		}}})
		// Wait for the migration worker.
		for dn.Slave().PinnedBytes() == 0 {
			v.Sleep(50 * time.Millisecond)
		}
		// Pinned reads come from RAM.
		start := v.Now()
		resp, err := dn.handleReadBlock(dfs.ReadBlockReq{Block: 7, Job: "j"})
		if err != nil || !resp.FromMemory {
			t.Fatalf("read: %+v err %v", resp, err)
		}
		if d := v.Now().Sub(start); d > 100*time.Millisecond {
			t.Errorf("pinned read took %v", d)
		}
		// Evict and confirm unpin.
		dn.handleEvictBatch(dfs.EvictBatch{Epoch: 1, Cmds: []dfs.EvictCmd{{Block: 7, Job: "j"}}})
		if dn.Slave().PinnedBytes() != 0 {
			t.Error("evict batch did not unpin")
		}
	})
}

func TestDeleteBlocks(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{})
		defer nn.Close()
		defer dn.Close()
		for i := dfs.BlockID(1); i <= 3; i++ {
			if _, err := dn.handleWriteBlock(dfs.WriteBlockReq{Block: dfs.Block{ID: i, Size: 1024}}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := dn.handleDeleteBlocks(dfs.DeleteBlocksReq{Blocks: []dfs.BlockID{1, 3}}); err != nil {
			t.Fatal(err)
		}
		if got := dn.store.Len(); got != 1 {
			t.Errorf("%d replicas stored, want 1", got)
		}
		if _, err := dn.handleReadBlock(dfs.ReadBlockReq{Block: 1}); err == nil {
			t.Error("read of deleted block succeeded")
		}
	})
}

func TestWriteValidation(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{})
		defer nn.Close()
		defer dn.Close()
		if _, err := dn.handleWriteBlock(dfs.WriteBlockReq{Block: dfs.Block{ID: 1, Size: 0}}); err == nil {
			t.Error("empty block accepted")
		}
		if _, err := dn.handleReadBlock(dfs.ReadBlockReq{Block: 99}); err == nil {
			t.Error("read of unknown block succeeded")
		}
	})
}

func TestCloseRejectsWork(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{})
		defer nn.Close()
		dn.Close()
		dn.Close() // idempotent
		if _, err := dn.handleWriteBlock(dfs.WriteBlockReq{Block: dfs.Block{ID: 1, Size: 10}}); err == nil {
			t.Error("write accepted after close")
		}
	})
}

func TestMigrationReadUsesMediaDevice(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{Media: storage.HDDSpec()})
		defer nn.Close()
		defer dn.Close()
		before := dn.MediaDevice().Stats().BytesServed
		if err := dn.CopyForMigration(dfs.Block{ID: 1, Size: 16 << 20}, 0, dfs.TierHDD, dfs.TierRAM); err != nil {
			t.Fatal(err)
		}
		if got := dn.MediaDevice().Stats().BytesServed - before; got != 16<<20 {
			t.Errorf("media served %d bytes", got)
		}
	})
}

func TestWritePipelineForwards(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		net := transport.NewInmemNetwork(v)
		nn := namenode.New(v, net, namenode.Config{Addr: "nn", Seed: 1})
		if err := nn.Start(); err != nil {
			t.Fatal(err)
		}
		defer nn.Close()
		var dns []*DataNode
		for i := 0; i < 3; i++ {
			dn, err := New(v, net, Config{Addr: fmt.Sprintf("p%d", i), NameNodeAddr: "nn"})
			if err != nil {
				t.Fatal(err)
			}
			if err := dn.Start(); err != nil {
				t.Fatal(err)
			}
			defer dn.Close()
			dns = append(dns, dn)
		}
		data := bytes.Repeat([]byte("p"), 2048)
		if _, err := dns[0].handleWriteBlock(dfs.WriteBlockReq{
			Block:    dfs.Block{ID: 1, Size: int64(len(data))},
			Data:     data,
			Pipeline: []string{"p1", "p2"},
		}); err != nil {
			t.Fatalf("pipelined write: %v", err)
		}
		// Every node in the chain holds the replica with identical bytes.
		for _, dn := range dns {
			resp, err := dn.handleReadBlock(dfs.ReadBlockReq{Block: 1})
			if err != nil || !bytes.Equal(resp.Data, data) {
				t.Errorf("%s: replica missing or corrupt (err %v)", dn.Addr(), err)
			}
		}
	})
}

// A pulled replica is the puller's own memory: re-replication over the
// in-memory network stores a copy of the source's bytes, never the
// source's slice, so no replica aliases a peer's.
func TestPulledReplicaSharesNoMemoryWithSource(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		net := transport.NewInmemNetwork(v)
		nn := namenode.New(v, net, namenode.Config{Addr: "nn", Seed: 1})
		if err := nn.Start(); err != nil {
			t.Fatal(err)
		}
		defer nn.Close()
		var dns []*DataNode
		for _, addr := range []string{"src", "dst"} {
			dn, err := New(v, net, Config{Addr: addr, NameNodeAddr: "nn"})
			if err != nil {
				t.Fatal(err)
			}
			if err := dn.Start(); err != nil {
				t.Fatal(err)
			}
			defer dn.Close()
			dns = append(dns, dn)
		}
		src, dst := dns[0], dns[1]
		data := bytes.Repeat([]byte("pull"), 1024)
		want := bytes.Clone(data)
		block := dfs.Block{ID: 1, Size: int64(len(data))}
		if _, err := src.handleWriteBlock(dfs.WriteBlockReq{Block: block, Data: data}); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := dst.handlePullBlock(dfs.PullBlockReq{Block: block, From: "src"}); err != nil {
			t.Fatalf("pull: %v", err)
		}
		from, _ := src.store.Acquire(1)
		defer from.Release()
		got, ok := dst.store.Acquire(1)
		if !ok || !bytes.Equal(got.Data, want) {
			t.Fatal("pulled replica missing or corrupt")
		}
		defer got.Release()
		if sharesMemory(got.Data, from.Data) {
			t.Fatal("the pulled replica is the source's replica: the puller stored a peer's memory")
		}
	})
}

// sharesMemory reports whether two slices overlap in memory.
func sharesMemory(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a))
}

func TestWritePipelineBrokenChainFails(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{})
		defer nn.Close()
		defer dn.Close()
		_, err := dn.handleWriteBlock(dfs.WriteBlockReq{
			Block:    dfs.Block{ID: 1, Size: 8},
			Data:     []byte("12345678"),
			Pipeline: []string{"no-such-node"},
		})
		if err == nil {
			t.Error("broken pipeline write succeeded")
		}
	})
}

func TestHotCacheServesRepeatReads(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{HotCacheBytes: 256 << 20})
		defer nn.Close()
		defer dn.Close()
		if _, err := dn.handleWriteBlock(dfs.WriteBlockReq{Block: dfs.Block{ID: 1, Size: 64 << 20}}); err != nil {
			t.Fatal(err)
		}
		// First read: cold.
		start := v.Now()
		r1, err := dn.handleReadBlock(dfs.ReadBlockReq{Block: 1})
		if err != nil || r1.FromMemory {
			t.Fatalf("first read: %+v err %v", r1, err)
		}
		cold := v.Now().Sub(start)
		// Second read: hot-cache hit.
		start = v.Now()
		r2, err := dn.handleReadBlock(dfs.ReadBlockReq{Block: 1})
		if err != nil || !r2.FromMemory {
			t.Fatalf("second read not from cache: %+v err %v", r2, err)
		}
		if hot := v.Now().Sub(start); hot*5 > cold {
			t.Errorf("cache hit %v not much faster than cold %v", hot, cold)
		}
	})
}

func TestHotCacheEvictsLRU(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		// Cache fits exactly two 64MB blocks.
		nn, dn := startPair(t, v, Config{HotCacheBytes: 128 << 20})
		defer nn.Close()
		defer dn.Close()
		for i := dfs.BlockID(1); i <= 3; i++ {
			if _, err := dn.handleWriteBlock(dfs.WriteBlockReq{Block: dfs.Block{ID: i, Size: 64 << 20}}); err != nil {
				t.Fatal(err)
			}
		}
		read := func(id dfs.BlockID) bool {
			r, err := dn.handleReadBlock(dfs.ReadBlockReq{Block: id})
			if err != nil {
				t.Fatal(err)
			}
			return r.FromMemory
		}
		read(1) // cache: 1
		read(2) // cache: 2,1
		if !read(1) {
			t.Error("block 1 evicted too early") // cache: 1,2
		}
		read(3) // evicts 2 (LRU) -> cache: 3,1
		if read(2) {
			t.Error("LRU block 2 survived eviction")
		}
		// That miss re-inserted 2, evicting 1 -> cache: 2,3.
		if !read(3) || !read(2) {
			t.Error("recently used blocks evicted")
		}
		if read(1) {
			t.Error("block 1 still cached after falling off the LRU")
		}
	})
}

// A pipeline peer that dies and comes back at the same address gets the
// next pipelined write: the failed forward drops the cached connection
// to the dead incarnation, so the following write re-dials.
func TestWritePipelineRedialsRestartedPeer(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		net := transport.NewInmemNetwork(v)
		nn := namenode.New(v, net, namenode.Config{Addr: "nn", Seed: 1})
		if err := nn.Start(); err != nil {
			t.Fatal(err)
		}
		defer nn.Close()
		start := func(addr string) *DataNode {
			dn, err := New(v, net, Config{Addr: addr, NameNodeAddr: "nn"})
			if err != nil {
				t.Fatal(err)
			}
			if err := dn.Start(); err != nil {
				t.Fatal(err)
			}
			return dn
		}
		head := start("p0")
		defer head.Close()
		peer := start("p1")
		data := bytes.Repeat([]byte("r"), 1024)
		write := func(id dfs.BlockID) error {
			_, err := head.handleWriteBlock(dfs.WriteBlockReq{
				Block:    dfs.Block{ID: id, Size: int64(len(data))},
				Data:     data,
				Pipeline: []string{"p1"},
			})
			return err
		}
		if err := write(1); err != nil {
			t.Fatalf("write before the peer died: %v", err)
		}
		peer.Close()
		if err := write(2); err == nil {
			t.Fatal("write through a dead peer succeeded")
		}
		peer = start("p1")
		defer peer.Close()
		if err := write(3); err != nil {
			t.Fatalf("write after the peer came back: %v", err)
		}
		if resp, err := peer.handleReadBlock(dfs.ReadBlockReq{Block: 3}); err != nil || !bytes.Equal(resp.Data, data) {
			t.Fatalf("restarted peer lacks the forwarded replica (err %v)", err)
		}
	})
}

// SSDDevice is the flash rung's device exactly when the datanode has an
// SSD spec.
func TestSSDDeviceOnlyWithSSDSpec(t *testing.T) {
	for _, withSSD := range []bool{false, true} {
		run(t, func(v *simclock.Virtual) {
			cfg := Config{Media: storage.HDDSpec()}
			if withSSD {
				cfg.SSD = storage.SSDSpec()
			}
			nn, dn := startPair(t, v, cfg)
			defer nn.Close()
			defer dn.Close()
			if got := dn.SSDDevice(); (got != nil) != withSSD {
				t.Fatalf("SSD spec %v: SSDDevice() = %v", withSSD, got)
			}
			if withSSD && dn.SSDDevice() == dn.MediaDevice() {
				t.Fatal("SSDDevice is the cold device")
			}
		})
	}
}
