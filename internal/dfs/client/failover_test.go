package client_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/dfs/namenode"
	"repro/internal/faultnet"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// A datanode that dies before a multi-block write must not fail the
// write: every block whose pipeline touches the dead node is retargeted
// (same ID, same offset, fresh nodes) and retried, and the finished
// file reads back intact.
func TestWriterSurvivesDeadPipelineNode(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 4})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()

		const blockSize = 256 << 10
		data := bytes.Repeat([]byte("fail over, not fall over. "), 8*blockSize/26+1)[:8*blockSize]

		// dn2 dies before any block ships. The namenode has not yet
		// expired its heartbeat, so allocations keep targeting it and the
		// writer must fail over block by block.
		mc.DataNodes[2].Close()
		if err := c.WriteFile("/chaos/f", data, blockSize, 2); err != nil {
			t.Fatalf("write with dead pipeline node: %v", err)
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
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()
		if _, err := c.List("/"); err != nil {
			t.Fatalf("list before the restart: %v", err)
		}
		mc.NameNode.Close()
		mc.NameNode = namenode.New(v, mc.Net, namenode.Config{Addr: cluster.NameNodeAddr, Seed: 7})
		if err := mc.NameNode.Start(); err != nil {
			t.Fatalf("namenode restart: %v", err)
		}
		if _, err := c.List("/"); err != nil {
			t.Fatalf("list after the restart: %v", err)
		}
	})
}

// faultyCluster is a miniCluster over a faultnet fabric so tests can
// drop and block the client↔namenode links deterministically.
type faultyCluster struct {
	*cluster.Cluster
	fab *faultnet.Fabric
}

func startFaulty(t *testing.T, v *simclock.Virtual, nodes int) *faultyCluster {
	t.Helper()
	base := transport.NewInmemNetwork(v)
	fab := faultnet.New(v, base, 11)
	c, err := cluster.StartOn(v, base, cluster.Config{
		Nodes: nodes, Seed: 7,
		WrapNet: func(node string, _ transport.Network) transport.Network { return fab.Node(node) },
	})
	if err != nil {
		t.Fatalf("cluster start: %v", err)
	}
	return &faultyCluster{c, fab}
}

// An idempotent namenode call whose first attempt times out must be
// retried and succeed once the link recovers.
func TestIdempotentNNCallRetriesThroughOutage(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		fc := startFaulty(t, v, 3)
		defer fc.Close()
		c, err := client.New(v, fc.fab.Node("client"), cluster.NameNodeAddr)
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()
		if err := c.WriteFile("/f", []byte("hello"), 1<<20, 2); err != nil {
			t.Fatalf("seed file: %v", err)
		}

		// Requests vanish for the next 1.5 simulated seconds.
		fc.fab.Block("client", cluster.NameNodeAddr)
		v.Go(func() {
			v.Sleep(1500 * time.Millisecond)
			fc.fab.Unblock("client", cluster.NameNodeAddr)
		})
		start := v.Now()
		info, err := c.Info("/f")
		if err != nil {
			t.Fatalf("Info through outage: %v", err)
		}
		if info.Size != 5 {
			t.Fatalf("info = %+v", info)
		}
		if d := v.Now().Sub(start); d < client.DefaultNNTimeout {
			t.Fatalf("Info returned after %v — it cannot have timed out and retried", d)
		}
	})
}

// Non-idempotent calls (migrate here) must NOT be retried: one timeout,
// one error, no hidden second submission.
func TestNonIdempotentNNCallDoesNotRetry(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		fc := startFaulty(t, v, 3)
		defer fc.Close()
		c, err := client.New(v, fc.fab.Node("client"), cluster.NameNodeAddr)
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()

		fc.fab.Block("client", cluster.NameNodeAddr)
		start := v.Now()
		_, err = c.Migrate("job1", []string{"/f"}, true)
		if !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("migrate err = %v, want timeout", err)
		}
		if d := v.Now().Sub(start); d > client.DefaultNNTimeout*3/2 {
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
		defer fc.Close()
		// Replies from the namenode vanish for 2.5s from the first
		// addBlocks call on: that attempt allocates but its reply is lost,
		// and the retry after its timeout hits the dedup path.
		net := &firstCallNet{Network: fc.fab.Node("client"), method: "nn.addBlocks", hook: func() {
			fc.fab.Block(cluster.NameNodeAddr, "client")
			v.Go(func() {
				v.Sleep(2500 * time.Millisecond)
				fc.fab.Unblock(cluster.NameNodeAddr, "client")
			})
		}}
		c, err := client.New(v, net, cluster.NameNodeAddr)
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		defer c.Close()
		if err := c.WriteFile("/g", bytes.Repeat([]byte{7}, 1<<20), 1<<20, 2); err != nil {
			t.Fatalf("write through lost replies: %v", err)
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

// firstCallNet runs hook when a client first sends a call to method, just
// before the call leaves.
type firstCallNet struct {
	transport.Network
	method string
	hook   func()
	once   sync.Once
}

func (n *firstCallNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &firstCallConn{Conn: c, n: n}, nil
}

type firstCallConn struct {
	transport.Conn
	n *firstCallNet
}

func (c *firstCallConn) Send(m transport.Message) error {
	if m.Method == c.n.method {
		c.n.once.Do(c.n.hook)
	}
	return c.Conn.Send(m)
}

// lateNet holds the first dn.writeBlock a client sends and delivers it
// hold later, on a connection of its own: a block attempt that reaches
// its datanode after the caller's call timed out, the block was written
// elsewhere and WriteFile returned. The held attempt's call never gets a
// reply.
type lateNet struct {
	transport.Network
	clock simclock.Clock
	hold  time.Duration

	mu     sync.Mutex
	victim string // the datanode the held attempt goes to
}

func (n *lateNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &lateConn{Conn: c, n: n, addr: addr}, nil
}

type lateConn struct {
	transport.Conn
	n    *lateNet
	addr string
}

func (c *lateConn) Send(m transport.Message) error {
	if m.Method != "dn.writeBlock" || !c.n.take(c.addr) {
		return c.Conn.Send(m)
	}
	c.n.clock.Go(func() {
		c.n.clock.Sleep(c.n.hold)
		if late, err := c.n.Network.Dial(c.addr); err == nil {
			_ = late.Send(m)
			_ = late.Close() // what was sent is still delivered
		}
	})
	return nil
}

// take claims the one held attempt for addr.
func (n *lateNet) take(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.victim != "" {
		return false
	}
	n.victim = addr
	return true
}

// A block attempt delivered after WriteFile returned must not store the
// bytes the caller has written over its slice since. The first attempt
// is held past the datanode call timeout, the retry succeeds on another
// node, the caller scribbles, and then the stale attempt lands.
// WriteFile sends from the caller's slice, so the datanode's CRC check
// is what rejects the changed bytes: the stale attempt stores nothing.
// Every WriteFile records checksums, so checksums=true is the one case.
func TestStaleBlockAttemptStoresNoScribbledBytes(t *testing.T) {
	t.Run("checksums=true", func(t *testing.T) {
		runSim(t, func(v *simclock.Virtual) {
			mc := startMini(t, v, miniConfig{nodes: 3})
			defer mc.Close()
			ln := &lateNet{Network: mc.Net, clock: v, hold: dfs.DefaultDataNodeTimeout + time.Minute}
			c, err := client.New(v, ln, cluster.NameNodeAddr)
			if err != nil {
				t.Fatalf("client: %v", err)
			}
			defer c.Close()

			in := bytes.Repeat([]byte("the caller's bytes "), 4096)
			want := bytes.Clone(in)
			start := v.Now()
			if err := c.WriteFile("/late/f", in, int64(len(in)), 1); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			if ln.victim == "" || v.Now().Sub(start) >= ln.hold {
				t.Fatalf("held attempt to %q; WriteFile took %v, want < %v", ln.victim, v.Now().Sub(start), ln.hold)
			}
			for i := range in {
				in[i] = 0xFF
			}
			v.Sleep(ln.hold) // the stale attempt lands

			lbs, err := c.Locations("/late/f")
			if err != nil || len(lbs) != 1 {
				t.Fatalf("Locations = %+v, %v; want one block", lbs, err)
			}
			for _, dn := range mc.DataNodes {
				pinned := lbs[0]
				pinned.Nodes = []string{dn.Addr()}
				got, err := c.ReadBlock(pinned, "")
				held := err == nil
				if held && !bytes.Equal(got.Data, want) {
					t.Fatalf("%s stores the caller's scribbled bytes", dn.Addr())
				}
				if dn.Addr() == ln.victim && held {
					t.Fatalf("stale attempt on %s stored a replica", dn.Addr())
				}
			}
		})
	})
}
