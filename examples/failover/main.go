// Failover example: demonstrate Ignem's failure resilience (§III-A5):
// an Ignem master restart purges slave reference lists via the epoch
// mechanism, a slave process restart discards its pinned memory but
// keeps serving, and a whole-datanode death leaves data readable from
// the surviving replicas. A second run gives the master a migration
// write-ahead log: its restart resumes from the journal, keeping the
// epoch and the slaves' pins.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/simclock"
	"repro/internal/wal"
)

func main() {
	err := cluster.RunVirtual(3*time.Minute, func(v *simclock.Virtual) {
		c, err := cluster.Start(v, cluster.Config{Nodes: 4, Mode: cluster.ModeIgnem, Seed: 3})
		if err != nil {
			log.Fatalf("cluster: %v", err)
		}
		defer c.Close()
		cl, err := c.Client()
		if err != nil {
			log.Fatalf("client: %v", err)
		}
		defer cl.Close()

		if err := cl.WriteSyntheticFile("/data/a", 256<<20, 0, 3); err != nil {
			log.Fatalf("write: %v", err)
		}
		if _, err := cl.Migrate("job1", []string{"/data/a"}, false); err != nil {
			log.Fatalf("migrate: %v", err)
		}
		waitPinned(v, c, 256<<20)
		fmt.Printf("1. migrated 256 MB for job1 (pinned: %d MB)\n", c.TotalPinnedBytes()>>20)

		// --- Ignem master failure ---
		if err := c.NameNode.RestartMaster(); err != nil {
			log.Fatalf("restart master: %v", err)
		}
		fmt.Println("2. Ignem master restarted (new epoch, empty state)")
		// The next command batch a slave sees carries the new epoch and
		// purges stale reference lists, keeping slaves consistent with
		// the new master's empty state.
		if err := cl.WriteSyntheticFile("/data/b", 64<<20, 0, 4); err != nil {
			log.Fatalf("write: %v", err)
		}
		if _, err := cl.Migrate("job2", []string{"/data/b"}, false); err != nil {
			log.Fatalf("migrate after master restart: %v", err)
		}
		for c.TotalPinnedBytes() != 64<<20 {
			v.Sleep(100 * time.Millisecond)
		}
		fmt.Printf("3. slaves purged job1's stale pins; only job2's 64 MB remain (pinned: %d MB)\n",
			c.TotalPinnedBytes()>>20)

		// --- slave process failure ---
		for _, dn := range c.DataNodes {
			dn.RestartSlaveProcess()
		}
		fmt.Printf("4. all slave processes restarted; pinned memory discarded (pinned: %d MB)\n",
			c.TotalPinnedBytes()>>20)
		start := v.Now()
		if _, err := cl.ReadFile("/data/b", "job2"); err != nil {
			log.Fatalf("read after slave restart: %v", err)
		}
		fmt.Printf("5. data still readable from disk after slave restart (%v)\n", v.Now().Sub(start))

		// --- whole datanode death ---
		victim := c.DataNodes[0]
		victim.Close()
		fmt.Printf("6. datanode %s died\n", victim.Addr())
		// Wait for the namenode to expire it, then read through the
		// surviving replicas.
		for {
			lbs, err := cl.Locations("/data/a")
			if err != nil {
				log.Fatalf("locations: %v", err)
			}
			alive := true
			for _, lb := range lbs {
				for _, n := range lb.Nodes {
					if n == victim.Addr() {
						alive = false
					}
				}
			}
			if alive {
				break
			}
			v.Sleep(500 * time.Millisecond)
		}
		cl.ForgetDataNode(victim.Addr())
		if _, err := cl.ReadFile("/data/a", "job3"); err != nil {
			log.Fatalf("read after node death: %v", err)
		}
		fmt.Println("7. namenode expired the dead node; reads fail over to surviving replicas")
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := journaledRestart(); err != nil {
		log.Fatal(err)
	}
}

// journaledRestart restarts a master that journals its migrations: the
// new master replays the journal in the same epoch, so the slaves keep
// their pins, and it still knows the job well enough to evict it.
func journaledRestart() error {
	return cluster.RunVirtual(3*time.Minute, func(v *simclock.Virtual) {
		c, err := cluster.Start(v, cluster.Config{Nodes: 4, Mode: cluster.ModeIgnem, Seed: 3, WALBackend: wal.NewMem()})
		if err != nil {
			log.Fatalf("cluster: %v", err)
		}
		defer c.Close()
		cl, err := c.Client()
		if err != nil {
			log.Fatalf("client: %v", err)
		}
		defer cl.Close()

		if err := cl.WriteSyntheticFile("/data/c", 128<<20, 0, 3); err != nil {
			log.Fatalf("write: %v", err)
		}
		if _, err := cl.Migrate("job4", []string{"/data/c"}, false); err != nil {
			log.Fatalf("migrate: %v", err)
		}
		waitPinned(v, c, 128<<20)
		before := c.NameNode.Master().Epoch()
		if err := c.NameNode.RestartMaster(); err != nil {
			log.Fatalf("restart journaled master: %v", err)
		}
		fmt.Printf("8. journaled master restarted (epoch %d -> %d, pinned: %d MB)\n",
			before, c.NameNode.Master().Epoch(), c.TotalPinnedBytes()>>20)
		if _, err := cl.Evict("job4", nil); err != nil {
			log.Fatalf("evict after journaled restart: %v", err)
		}
		for c.TotalPinnedBytes() != 0 {
			v.Sleep(100 * time.Millisecond)
		}
		fmt.Printf("9. the resumed master evicted job4 (pinned: %d MB)\n", c.TotalPinnedBytes()>>20)
	})
}

func waitPinned(v *simclock.Virtual, c *cluster.Cluster, want int64) {
	for c.TotalPinnedBytes() < want {
		v.Sleep(100 * time.Millisecond)
	}
}
