// Command ignem-dfs is a client CLI for a live Ignem cluster (start one
// with "ignem-cluster -serve"). It exposes the DFS namespace and the
// Ignem migrate/evict extension.
//
// Usage:
//
//	ignem-dfs -nn host:port ls [prefix]
//	ignem-dfs -nn host:port put <local-file> <dfs-path>
//	ignem-dfs -nn host:port get <dfs-path> [local-file]
//	ignem-dfs -nn host:port rm <dfs-path>
//	ignem-dfs -nn host:port stat <dfs-path>
//	ignem-dfs -nn host:port locations <dfs-path> [job]
//	ignem-dfs -nn host:port migrate <job> <dfs-path> ...
//	ignem-dfs -nn host:port evict <job> <dfs-path> ...
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/simclock"
	"repro/internal/transport"
)

func main() {
	nn := flag.String("nn", "", "namenode address (host:port)")
	blockKB := flag.Int64("block-kb", 1024, "block size for put, in KB")
	replication := flag.Int("replication", 2, "replication for put")
	flag.Parse()
	if *nn == "" || flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	cl, err := client.New(simclock.NewReal(), transport.NewTCPNetwork(), *nn)
	if err != nil {
		log.Fatalf("connect: %v", err)
	}
	defer cl.Close()

	args := flag.Args()
	switch cmd, rest := args[0], args[1:]; cmd {
	case "ls":
		prefix := ""
		if len(rest) > 0 {
			prefix = rest[0]
		}
		files, err := cl.List(prefix)
		if err != nil {
			log.Fatalf("ls: %v", err)
		}
		for _, f := range files {
			state := "open"
			if f.Complete {
				state = "sealed"
			}
			fmt.Printf("%12d  %-6s rep=%d  %s\n", f.Size, state, f.Replication, f.Path)
		}
	case "put":
		need(rest, 2)
		data, err := os.ReadFile(rest[0])
		if err != nil {
			log.Fatalf("put: %v", err)
		}
		if err := cl.WriteFile(rest[1], data, *blockKB<<10, *replication); err != nil {
			log.Fatalf("put: %v", err)
		}
		fmt.Printf("wrote %d bytes to %s\n", len(data), rest[1])
	case "get":
		need(rest, 1)
		data, err := cl.ReadFile(rest[0], "ignem-dfs")
		if err != nil {
			log.Fatalf("get: %v", err)
		}
		if len(rest) > 1 {
			if err := os.WriteFile(rest[1], data, 0o644); err != nil {
				log.Fatalf("get: %v", err)
			}
			fmt.Printf("fetched %d bytes to %s\n", len(data), rest[1])
		} else {
			os.Stdout.Write(data)
		}
	case "rm":
		need(rest, 1)
		if err := cl.Delete(rest[0]); err != nil {
			log.Fatalf("rm: %v", err)
		}
		fmt.Printf("deleted %s\n", rest[0])
	case "stat":
		need(rest, 1)
		info, err := cl.Info(rest[0])
		if err != nil {
			log.Fatalf("stat: %v", err)
		}
		fmt.Printf("path=%s size=%d blockSize=%d replication=%d complete=%v\n",
			info.Path, info.Size, info.BlockSize, info.Replication, info.Complete)
	case "locations":
		need(rest, 1)
		job := dfs.JobID("")
		if len(rest) > 1 {
			job = dfs.JobID(rest[1])
		}
		lbs, err := cl.LocationsForJob(rest[0], job)
		if err != nil {
			log.Fatalf("locations: %v", err)
		}
		for _, lb := range lbs {
			nodes := make([]string, len(lb.Nodes))
			for i, n := range lb.Nodes {
				nodes[i] = n + ":" + lb.TierAt(i).String()
			}
			fmt.Printf("block %-4d size=%-10d nodes=%v assigned=%q\n",
				lb.Block.ID, lb.Block.Size, nodes, lb.Assigned)
		}
	case "migrate":
		need(rest, 2)
		resp, err := cl.Migrate(dfs.JobID(rest[0]), rest[1:], false)
		if err != nil {
			log.Fatalf("migrate: %v", err)
		}
		fmt.Printf("enqueued %d blocks (%d bytes) for job %s\n", resp.Blocks, resp.Bytes, rest[0])
	case "evict":
		need(rest, 2)
		if _, err := cl.Evict(dfs.JobID(rest[0]), rest[1:]); err != nil {
			log.Fatalf("evict: %v", err)
		}
		fmt.Printf("evicted inputs of job %s\n", rest[0])
	default:
		fmt.Fprintf(os.Stderr, "ignem-dfs: unknown command %q\n", cmd)
		os.Exit(2)
	}
}

func need(args []string, n int) {
	if len(args) < n {
		fmt.Fprintf(os.Stderr, "ignem-dfs: missing arguments\n")
		os.Exit(2)
	}
}
