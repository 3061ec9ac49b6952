package client_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/dfs/client"
	"repro/internal/dfs/datanode"
	"repro/internal/dfs/namenode"
	"repro/internal/faultnet"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
)

// A datanode that dies before a multi-block write must not fail the
// write: every block whose pipeline touches the dead node is retargeted
// (same ID, same offset, fresh nodes) and retried, and the finished
// file reads back intact.
func TestWriterSurvivesDeadPipelineNode(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 4})
		defer mc.close()
		c := mc.client(t)
		defer c.Close()

		const blockSize = 256 << 10
		data := bytes.Repeat([]byte("fail over, not fall over. "), 8*blockSize/26+1)[:8*blockSize]

		w, err := c.Create("/chaos/f", blockSize, 2)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		// dn2 dies before any block ships. The namenode has not yet
		// expired its heartbeat, so allocations keep targeting it and the
		// writer must fail over block by block.
		mc.dns[2].Close()
		if _, err := w.Write(data); err != nil {
			t.Fatalf("write with dead pipeline node: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		lbs, err := c.Locations("/chaos/f")
		if err != nil {
			t.Fatalf("locations: %v", err)
		}
		if len(lbs) != 8 {
			t.Fatalf("blocks = %d, want 8", len(lbs))
		}
		var off int64
		for i, lb := range lbs {
			if lb.Offset != off {
				t.Fatalf("block %d offset = %d, want %d (retarget must not reorder)", i, lb.Offset, off)
			}
			off += lb.Block.Size
			for _, n := range lb.Nodes {
				if n == "dn2" {
					t.Fatalf("block %d still targets the dead node: %v", i, lb.Nodes)
				}
			}
			if len(lb.Nodes) == 0 {
				t.Fatalf("block %d has no replicas", i)
			}
		}

		got, err := c.ReadFile("/chaos/f", "")
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read back %d bytes, mismatch with written %d", len(got), len(data))
		}
	})
}

// A namenode that restarts at the same address closes the client's
// connection under it; the client's next idempotent call sees the
// closed connection, redials, and succeeds on the retry.
func TestIdempotentNNCallRedialsRestartedNameNode(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 1})
		defer mc.close()
		c := mc.client(t, client.WithSeed(5))
		defer c.Close()
		if _, err := c.List("/"); err != nil {
			t.Fatalf("list before the restart: %v", err)
		}
		mc.nn.Close()
		mc.nn = namenode.New(v, mc.net, namenode.Config{Addr: "nn", Seed: 7})
		if err := mc.nn.Start(); err != nil {
			t.Fatalf("namenode restart: %v", err)
		}
		if _, err := c.List("/"); err != nil {
			t.Fatalf("list after the restart: %v", err)
		}
	})
}

// faultyCluster is a miniCluster rebuilt over a faultnet fabric so tests
// can drop and block the client↔namenode links deterministically.
type faultyCluster struct {
	fab *faultnet.Fabric
	nn  *namenode.NameNode
	dns []*datanode.DataNode
}

func startFaulty(t *testing.T, v *simclock.Virtual, nodes int) *faultyCluster {
	t.Helper()
	fab := faultnet.New(v, transport.NewInmemNetwork(v), 11)
	nn := namenode.New(v, fab.Node("nn"), namenode.Config{Addr: "nn", Seed: 7})
	if err := nn.Start(); err != nil {
		t.Fatalf("namenode start: %v", err)
	}
	fc := &faultyCluster{fab: fab, nn: nn}
	for i := 0; i < nodes; i++ {
		addr := "dn" + string(rune('0'+i))
		dn, err := datanode.New(v, fab.Node(addr), datanode.Config{
			Addr: addr, NameNodeAddr: "nn", Media: storage.HDDSpec(),
		})
		if err != nil {
			t.Fatalf("datanode new: %v", err)
		}
		if err := dn.Start(); err != nil {
			t.Fatalf("datanode start: %v", err)
		}
		fc.dns = append(fc.dns, dn)
	}
	return fc
}

func (fc *faultyCluster) close() {
	for _, dn := range fc.dns {
		dn.Close()
	}
	fc.nn.Close()
}

// An idempotent namenode call whose first attempt times out must be
// retried and succeed once the link recovers.
func TestIdempotentNNCallRetriesThroughOutage(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		fc := startFaulty(t, v, 3)
		defer fc.close()
		c, err := client.New(v, fc.fab.Node("client"), "nn",
			client.WithNNTimeout(time.Second), client.WithSeed(5))
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()
		if err := c.WriteFile("/f", []byte("hello"), 1<<20, 2); err != nil {
			t.Fatalf("seed file: %v", err)
		}

		// Requests vanish for the next 1.5 simulated seconds.
		fc.fab.Block("client", "nn")
		v.Go(func() {
			v.Sleep(1500 * time.Millisecond)
			fc.fab.Unblock("client", "nn")
		})
		start := v.Now()
		info, err := c.Info("/f")
		if err != nil {
			t.Fatalf("Info through outage: %v", err)
		}
		if info.Size != 5 {
			t.Fatalf("info = %+v", info)
		}
		if d := v.Now().Sub(start); d < time.Second {
			t.Fatalf("Info returned after %v — it cannot have timed out and retried", d)
		}
	})
}

// Non-idempotent calls (migrate here) must NOT be retried: one timeout,
// one error, no hidden second submission.
func TestNonIdempotentNNCallDoesNotRetry(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		fc := startFaulty(t, v, 3)
		defer fc.close()
		c, err := client.New(v, fc.fab.Node("client"), "nn", client.WithNNTimeout(time.Second))
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()

		fc.fab.Block("client", "nn")
		start := v.Now()
		_, err = c.Migrate("job1", []string{"/f"}, true)
		if !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("migrate err = %v, want timeout", err)
		}
		if d := v.Now().Sub(start); d > 1500*time.Millisecond {
			t.Fatalf("migrate took %v — a non-idempotent call must fail after one timeout", d)
		}
	})
}

// A lost allocation *reply* must not double-allocate: the retried
// request carries the same request ID and the namenode hands back the
// original allocation.
func TestAllocationRetryAfterLostReplyDoesNotDoubleAllocate(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		fc := startFaulty(t, v, 3)
		defer fc.close()
		c, err := client.New(v, fc.fab.Node("client"), "nn",
			client.WithNNTimeout(time.Second), client.WithSeed(3))
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()

		w, err := c.Create("/g", 1<<20, 2)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		// Replies from the namenode vanish for 2.5s: the first addBlock
		// attempt allocates but its reply is lost; at least one retry hits
		// the dedup path before the link heals.
		fc.fab.Block("nn", "client")
		v.Go(func() {
			v.Sleep(2500 * time.Millisecond)
			fc.fab.Unblock("nn", "client")
		})
		if _, err := w.Write(bytes.Repeat([]byte{7}, 1<<20)); err != nil {
			t.Fatalf("write through lost replies: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		info, err := c.Info("/g")
		if err != nil {
			t.Fatalf("info: %v", err)
		}
		if info.Size != 1<<20 {
			t.Fatalf("file size = %d, want %d — a retried allocation double-allocated", info.Size, int64(1<<20))
		}
		lbs, err := c.Locations("/g")
		if err != nil || len(lbs) != 1 {
			t.Fatalf("blocks = %d (%v), want exactly 1", len(lbs), err)
		}
		got, err := c.ReadFile("/g", "")
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{7}, 1<<20)) {
			t.Fatalf("read back failed: %d bytes, %v", len(got), err)
		}
	})
}
