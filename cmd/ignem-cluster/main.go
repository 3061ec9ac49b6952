// Command ignem-cluster runs a live Ignem cluster over real TCP sockets
// on localhost: cluster.StartOn brings up a namenode (with the Ignem
// master), several datanodes (with Ignem slaves), the scheduler and the
// engine on transport.Loopback, each on an ephemeral port it keeps, and
// a client writes a file, migrates it, reads it hot and cold, and evicts
// it. It is the same bring-up the virtual-time experiments run on the
// in-memory network.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
)

func main() {
	nodes := flag.Int("nodes", 3, "datanode count")
	blocks := flag.Int("blocks", 4, "blocks in the demo file")
	blockMB := flag.Int64("block-mb", 8, "block size in MB")
	scale := flag.Float64("time-scale", 4, "speed-up factor for simulated device time")
	serve := flag.Bool("serve", false, "after the demo, keep the cluster up for ignem-dfs until interrupted")
	flag.Parse()

	clock := simclock.NewScaledReal(*scale)
	c, err := cluster.StartOn(clock, transport.Loopback{}, cluster.Config{Nodes: *nodes, Seed: 1})
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
	defer c.Close()
	nnAddr := c.NameNode.Addr()
	fmt.Printf("namenode up at %s\n", nnAddr)
	for i, dn := range c.DataNodes {
		fmt.Printf("datanode %d up at %s\n", i, dn.Addr())
	}

	cl, err := c.Client()
	if err != nil {
		log.Fatalf("client: %v", err)
	}
	defer cl.Close()

	// Write a demo file.
	size := int64(*blocks) * (*blockMB << 20)
	fmt.Printf("\nwriting /demo/input (%d MB, %d replicas)...\n", size>>20, min(2, *nodes))
	start := time.Now()
	if err := cl.WriteSyntheticFile("/demo/input", size, *blockMB<<20, min(2, *nodes)); err != nil {
		log.Fatalf("write: %v", err)
	}
	fmt.Printf("wrote in %v\n", time.Since(start))

	// Cold read: straight off the simulated HDDs.
	start = time.Now()
	if _, err := cl.ReadFile("/demo/input", "job-cold"); err != nil {
		log.Fatalf("cold read: %v", err)
	}
	cold := time.Since(start)
	fmt.Printf("cold read:     %v\n", cold)

	// Migrate, wait for the slaves, then read hot.
	resp, err := cl.Migrate("job-hot", []string{"/demo/input"}, false)
	if err != nil {
		log.Fatalf("migrate: %v", err)
	}
	fmt.Printf("migrating %d blocks (%d MB)...\n", resp.Blocks, resp.Bytes>>20)
	waitFor("the pins", 30*time.Second, func() bool { return c.SlaveStats().PinnedBlocks == resp.Blocks })
	// The namenode learns of the pins from the slaves' next heartbeat;
	// until then the read is routed to a disk copy.
	waitFor("the namenode to list the pins", 10*time.Second, func() bool {
		lbs, err := cl.Locations("/demo/input")
		return err == nil && !slices.ContainsFunc(lbs, func(lb dfs.LocatedBlock) bool { return !slices.Contains(lb.Tiers, dfs.TierRAM) })
	})

	start = time.Now()
	if _, err := cl.ReadFile("/demo/input", "job-hot"); err != nil {
		log.Fatalf("hot read: %v", err)
	}
	hot := time.Since(start)
	fmt.Printf("migrated read: %v (%.1fx faster)\n", hot, float64(cold)/float64(hot))

	if _, err := cl.Evict("job-hot", []string{"/demo/input"}); err != nil {
		log.Fatalf("evict: %v", err)
	}
	waitFor("the pins to drain", 10*time.Second, func() bool { return c.SlaveStats().PinnedBlocks == 0 })
	fmt.Println("evicted; pinned memory back to zero")
	var mem storage.Memory
	for _, dn := range c.DataNodes {
		m := dn.ReplicaMemory()
		mem.Replicas += m.Replicas
		mem.Slots += m.Slots
		mem.Chunks += m.Chunks
	}
	// A synthetic file has no bytes, so it takes no replica memory.
	fmt.Printf("replica memory: %d replicas with bytes in %d arena slots, %d chunks mapped\n",
		mem.Replicas, mem.Slots, mem.Chunks)

	if *serve {
		fmt.Printf("\ncluster serving; try:\n  go run ./cmd/ignem-dfs -nn %s ls /\nCtrl-C to stop\n", nnAddr)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		fmt.Println("shutting down")
	}
}

// waitFor polls done until it holds, and exits the demo if it does not
// within timeout.
func waitFor(what string, timeout time.Duration, done func() bool) {
	deadline := time.Now().Add(timeout)
	for !done() {
		if time.Now().After(deadline) {
			log.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
