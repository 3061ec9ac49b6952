package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/ignem"
	"repro/internal/mapreduce"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// On the in-memory network a component's listener address is its node
// name, so StartOn keeps the names seeds and goldens are keyed by.
func TestStartAndCloseAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeHDFS, ModeIgnem, ModeInputsInRAM} {
		mode := mode
		err := RunVirtual(time.Minute, func(v *simclock.Virtual) {
			c, err := StartOn(v, transport.NewInmemNetwork(v), Config{Nodes: 3, Mode: mode, Seed: 1})
			if err != nil {
				t.Errorf("%s: start: %v", mode, err)
				return
			}
			defer c.Close()
			if got := len(c.DataNodes); got != 3 {
				t.Errorf("%s: %d nodes", mode, got)
			}
			if got := c.NameNode.Addr(); got != NameNodeAddr {
				t.Errorf("%s: namenode at %q, want %q", mode, got, NameNodeAddr)
			}
			for i, dn := range c.DataNodes {
				if want := fmt.Sprintf("dn%d", i); dn.Addr() != want {
					t.Errorf("%s: datanode %d at %q, want %q", mode, i, dn.Addr(), want)
				}
			}
			if c.UseIgnem() != (mode == ModeIgnem) {
				t.Errorf("%s: UseIgnem = %v", mode, c.UseIgnem())
			}
			if mode.String() == "" {
				t.Error("empty mode name")
			}
			// All datanodes register and become live.
			for len(c.NameNode.LiveDataNodes()) < 3 {
				v.Sleep(time.Second)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestClusterAggregates(t *testing.T) {
	err := RunVirtual(time.Minute, func(v *simclock.Virtual) {
		c, err := Start(v, Config{Nodes: 2, Mode: ModeIgnem, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cl, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.WriteSyntheticFile("/f", 2*dfs.DefaultBlockSize, 0, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Migrate("j", []string{"/f"}, false); err != nil {
			t.Fatal(err)
		}
		for c.TotalPinnedBytes() < 2*dfs.DefaultBlockSize {
			v.Sleep(100 * time.Millisecond)
		}
		per := c.PinnedBytesPerNode()
		var sum int64
		for _, p := range per {
			sum += p
		}
		if sum != c.TotalPinnedBytes() {
			t.Errorf("per-node sum %d != total %d", sum, c.TotalPinnedBytes())
		}
		st := c.SlaveStats()
		if st.MigratedBlocks != 2 {
			t.Errorf("MigratedBlocks = %d", st.MigratedBlocks)
		}
		if c.MeanDiskBusy() <= 0 {
			t.Error("no disk busy time recorded after migration reads")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestModeStringUnknown(t *testing.T) {
	if got := Mode(99).String(); got != "Mode(99)" {
		t.Errorf("String = %q", got)
	}
}

func TestRunVirtualStallDetection(t *testing.T) {
	// A goroutine blocking in native (non-clock) sleep stalls the sim;
	// RunVirtual must report it rather than hang.
	err := RunVirtual(100*time.Millisecond, func(v *simclock.Virtual) {
		ch := make(chan struct{})
		<-ch // never delivered: a bug RunVirtual should catch
	})
	if err == nil {
		t.Fatal("stall not detected")
	}
}

// TestDeadJobCleanupSweep exercises the paper's §III-A4 failure path end
// to end: a job migrates its input, dies without evicting, and the
// slave's occupancy-triggered liveness sweep (querying the real
// scheduler) reclaims the memory so a later job can migrate.
func TestDeadJobCleanupSweep(t *testing.T) {
	err := RunVirtual(2*time.Minute, func(v *simclock.Virtual) {
		// One node so all migration lands on a single slave and the
		// occupancy threshold is guaranteed to trip.
		c, err := Start(v, Config{
			Nodes: 1,
			Mode:  ModeIgnem,
			Seed:  4,
			Slave: ignem.SlaveConfig{
				Capacity:           192 << 20, // exactly three 64MB blocks
				CleanupMinInterval: time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cl, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()

		// Job A fills the migration buffers, then dies without evicting.
		jobA, err := c.Scheduler.SubmitJob("job-a")
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteSyntheticFile("/a", 3*dfs.DefaultBlockSize, 0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Migrate("job-a", []string{"/a"}, false); err != nil {
			t.Fatal(err)
		}
		for c.TotalPinnedBytes() < 3*dfs.DefaultBlockSize {
			v.Sleep(100 * time.Millisecond)
		}
		jobA.Complete() // dies; no evict instruction will ever come

		// Job B needs more space than remains; its deferred commands
		// trigger the sweep, which finds job A dead and purges it.
		jobB, err := c.Scheduler.SubmitJob("job-b")
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteSyntheticFile("/b", 3*dfs.DefaultBlockSize, 0, 1); err != nil {
			t.Fatal(err)
		}
		v.Sleep(2 * time.Second) // past the sweep rate limit
		if _, err := cl.Migrate("job-b", []string{"/b"}, false); err != nil {
			t.Fatal(err)
		}
		deadline := v.Now().Add(time.Minute)
		for c.TotalPinnedBytes() != 3*dfs.DefaultBlockSize || c.SlaveStats().PurgedJobs == 0 {
			if v.Now().After(deadline) {
				t.Fatalf("sweep never reclaimed job A: pinned=%d stats=%+v",
					c.TotalPinnedBytes(), c.SlaveStats())
			}
			v.Sleep(200 * time.Millisecond)
		}
		jobB.Complete()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosFailuresDuringWorkload restarts Ignem masters and slave
// processes randomly while a stream of Ignem jobs runs. Every job must
// complete, and once the dust settles no migrated memory may leak.
func TestChaosFailuresDuringWorkload(t *testing.T) {
	err := RunVirtual(5*time.Minute, func(v *simclock.Virtual) {
		c, err := Start(v, Config{Nodes: 4, Mode: ModeIgnem, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cl, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()

		const jobs = 10
		for i := 0; i < jobs; i++ {
			if err := cl.WriteSyntheticFile(fmt.Sprintf("/chaos/%d", i), 2*dfs.DefaultBlockSize, 0, 2); err != nil {
				t.Fatal(err)
			}
		}

		// The chaos monkey: every few seconds, restart the Ignem master
		// or a random slave process.
		rng := rand.New(rand.NewSource(99))
		stop := simclock.NewChan[struct{}](v)
		chaosDone := simclock.NewChan[struct{}](v)
		v.Go(func() {
			defer chaosDone.Send(struct{}{})
			for {
				if _, _, timedOut := stop.RecvTimeout(4 * time.Second); !timedOut {
					return
				}
				if rng.Intn(2) == 0 {
					if err := c.NameNode.RestartMaster(); err != nil {
						t.Errorf("restart master: %v", err)
					}
				} else {
					c.DataNodes[rng.Intn(len(c.DataNodes))].RestartSlaveProcess()
				}
			}
		})

		completed := 0
		var mu sync.Mutex
		wg := simclock.NewWaitGroup(v)
		for i := 0; i < jobs; i++ {
			i := i
			wg.Go(func() {
				v.Sleep(time.Duration(i) * 3 * time.Second)
				_, err := c.Engine.Run(mapreduce.Config{
					ID:            dfs.JobID(fmt.Sprintf("chaos-%d", i)),
					InputPaths:    []string{fmt.Sprintf("/chaos/%d", i)},
					UseIgnem:      true,
					ImplicitEvict: true,
				})
				if err != nil {
					t.Errorf("job %d: %v", i, err)
					return
				}
				mu.Lock()
				completed++
				mu.Unlock()
			})
		}
		wg.Wait()
		stop.Send(struct{}{})
		chaosDone.Recv()

		if completed != jobs {
			t.Errorf("completed %d/%d jobs under chaos", completed, jobs)
		}
		// Stale pins from pre-restart epochs are purged when any
		// new-epoch batch arrives; the remaining ones disappear with a
		// final master restart broadcast.
		if err := c.NameNode.RestartMaster(); err != nil {
			t.Fatalf("restart master: %v", err)
		}
		v.Sleep(2 * time.Second)
		if got := c.TotalPinnedBytes(); got != 0 {
			t.Errorf("chaos leaked %d pinned bytes", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// locatedCounter is a fabric seam that counts the LocatedBlocks in every
// getLocations reply a component receives.
type locatedCounter struct {
	transport.Network
	n *atomic.Int64
}

func (c locatedCounter) Dial(addr string) (transport.Conn, error) {
	conn, err := c.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return locatedConn{conn, c.n}, nil
}

type locatedConn struct {
	transport.Conn
	n *atomic.Int64
}

func (c locatedConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if resp, ok := m.Body.(dfs.GetLocationsResp); ok {
		c.n.Add(int64(len(resp.Blocks)))
	}
	return m, err
}

// TestMapTasksLocateOneBlock: a job over an N-block file makes the
// namenode locate N blocks at submit and one per map task — 2N in all,
// not the N + N² of re-resolving the whole file in every task.
func TestMapTasksLocateOneBlock(t *testing.T) {
	const blocks = 64
	var located atomic.Int64
	err := RunVirtual(2*time.Minute, func(v *simclock.Virtual) {
		c, err := Start(v, Config{
			Nodes: 4, Mode: ModeIgnem, Seed: 6,
			WrapNet: func(node string, base transport.Network) transport.Network {
				if node == EngineAddr {
					return locatedCounter{base, &located}
				}
				return base
			},
		})
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		cl, err := c.Client()
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		if err := cl.WriteSyntheticFile("/wide", blocks<<20, 1<<20, 2); err != nil {
			t.Error(err)
			return
		}
		r, err := c.Engine.Run(mapreduce.Config{ID: "wide", InputPaths: []string{"/wide"}, UseIgnem: true})
		if err != nil || len(r.MapResults) != blocks {
			t.Errorf("job: %d map tasks, err %v; want %d", len(r.MapResults), err, blocks)
		}
	})
	if err != nil || t.Failed() {
		t.Fatal(err)
	}
	if got, want := located.Load(), int64(2*blocks); got != want {
		t.Errorf("getLocations replies carried %d located blocks, want %d (submit %d + one per map task)", got, want, blocks)
	}
}

// TestStartOnLoopbackTCP runs the stack ignem-cluster runs: the whole
// cluster on the scaled real clock over TCP loopback, each component on
// a port it bound itself. A file of real bytes survives a cold read, a
// migration and a read as the migrating job, and an eviction; no
// datanode holds a replica slot after Close.
func TestStartOnLoopbackTCP(t *testing.T) {
	c, err := StartOn(simclock.NewScaledReal(16), transport.Loopback{}, Config{Nodes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer c.Close()
		exerciseLoopback(t, c)
	}()
	for _, dn := range c.DataNodes {
		waitReal(t, dn.Addr()+"'s replica slots to be released", func() bool { return dn.ReplicaMemory().Slots == 0 })
	}
}

// waitReal polls cond on the wall clock, for at most 30 s.
func waitReal(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func exerciseLoopback(t *testing.T, c *Cluster) {
	addrs := map[string]bool{c.NameNode.Addr(): true}
	for _, dn := range c.DataNodes {
		addrs[dn.Addr()] = true
	}
	if len(addrs) != 4 {
		t.Fatalf("addresses %v: want 4 distinct", addrs)
	}
	for addr := range addrs {
		if host, port, err := net.SplitHostPort(addr); err != nil || host != "127.0.0.1" || port == "0" {
			t.Fatalf("address %q is not a loopback port", addr)
		}
		// Bound: nobody else can take it.
		if l, err := net.Listen("tcp", addr); err == nil {
			l.Close()
			t.Fatalf("address %q was free to bind again", addr)
		}
	}

	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const blockSize, blocks = 256 << 10, 4
	data := make([]byte, blocks*blockSize)
	rand.New(rand.NewSource(1)).Read(data)
	if err := cl.WriteFile("/f", data, blockSize, 2); err != nil {
		t.Fatal(err)
	}
	slots := 0
	for _, dn := range c.DataNodes {
		slots += dn.ReplicaMemory().Slots
	}
	if slots != 2*blocks {
		t.Fatalf("%d replica slots held, want %d", slots, 2*blocks)
	}
	readBack := func(job dfs.JobID) {
		t.Helper()
		got, err := cl.ReadFile("/f", job)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read as %q: %d bytes, err %v; want the %d written", job, len(got), err, len(data))
		}
	}
	readBack("cold")

	resp, err := cl.Migrate("hot", []string{"/f"}, false)
	if err != nil || resp.Blocks != blocks {
		t.Fatalf("migrate: %d blocks, err %v; want %d", resp.Blocks, err, blocks)
	}
	waitReal(t, "every block to be pinned", func() bool { return c.SlaveStats().PinnedBlocks == blocks })
	readBack("hot")
	if _, err := cl.Evict("hot", []string{"/f"}); err != nil {
		t.Fatal(err)
	}
	waitReal(t, "the pins to drain", func() bool { return c.SlaveStats().PinnedBlocks == 0 })
}

// A bring-up that fails part way releases every address it bound.
func TestStartOnFailureReleasesListeners(t *testing.T) {
	err := RunVirtual(time.Minute, func(v *simclock.Virtual) {
		net := transport.NewInmemNetwork(v)
		if _, err := net.Listen("dn1"); err != nil {
			t.Error(err)
			return
		}
		if c, err := StartOn(v, net, Config{Nodes: 3}); err == nil {
			c.Close()
			t.Error("StartOn succeeded with dn1's address taken")
			return
		}
		for _, addr := range []string{NameNodeAddr, "dn0"} {
			if _, err := net.Listen(addr); err != nil {
				t.Errorf("%s still bound after the failed bring-up: %v", addr, err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
