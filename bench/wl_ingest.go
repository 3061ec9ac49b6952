package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dfs/client"
)

// ingestRescan: each worker deletes the oldest file of its 32-file
// ring, writes a new 8 MiB one, overwrites one file of its 4-file hot
// set, then re-reads the hot set through a block cache. See README.md.
type ingestRescan struct {
	realBase
	workers []*ingestWorker
}

type ingestWorker struct {
	id       int
	payloads [][]byte
	sums     []uint32
	ring     []string // oldest first
	nextFile int
	hot      []string
	hotSum   []uint32
}

// ingestCacheBytes holds the hot set four times over: the cache splits
// its budget evenly over eight shards, and block IDs do not.
func ingestCacheBytes() int64 { return int64(4 * g.ingestHot * g.ingestFileSize) }

func (w *ingestRescan) setup(e *env) (bringup, preload time.Duration, err error) {
	w.e = e
	t0 := time.Now()
	if w.c, err = startTCP(tcpConfig{seed: e.pl.Seed, wrap: e.wrapNet()}); err != nil {
		return 0, 0, err
	}
	bringup = time.Since(t0)
	cl, err := w.c.client()
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	for id := 0; id < e.workers; id++ {
		iw := &ingestWorker{id: id}
		for p := 0; p < g.ingestPayloads; p++ {
			buf := make([]byte, g.ingestFileSize)
			fillPayload(buf, e.pl.PayloadSeeds[id*g.ingestPayloads+p])
			iw.payloads = append(iw.payloads, buf)
			iw.sums = append(iw.sums, crc32c(buf))
		}
		for f := 0; f < g.ingestRing; f++ {
			path := iw.newPath()
			if err := w.write(cl, path, iw.payloads[f%g.ingestPayloads]); err != nil {
				return 0, 0, err
			}
			iw.ring = append(iw.ring, path)
		}
		for h := 0; h < g.ingestHot; h++ {
			iw.hot = append(iw.hot, fmt.Sprintf("/ingest/w%d/hot%d", id, h))
			iw.hotSum = append(iw.hotSum, iw.sums[h%g.ingestPayloads])
			if err := w.write(cl, iw.hot[h], iw.payloads[h%g.ingestPayloads]); err != nil {
				return 0, 0, err
			}
		}
		w.workers = append(w.workers, iw)
	}
	return bringup, time.Since(t0) - bringup, nil
}

func (iw *ingestWorker) newPath() string {
	iw.nextFile++
	return fmt.Sprintf("/ingest/w%d/f%d", iw.id, iw.nextFile)
}

func (w *ingestRescan) write(cl *client.Client, path string, data []byte) error {
	var err error
	w.e.tr.root("write_file", func() { err = cl.WriteFile(path, data, int64(g.ingestBlockSize), replication) })
	if err == nil {
		w.written.Add(int64(len(data)))
	}
	return err
}

func (w *ingestRescan) step(worker int) (func(*sampler, int) error, error) {
	var cur atomic.Pointer[sampler]
	cl, err := w.client(client.WithBlockCache(ingestCacheBytes()), observeBlocks(&cur))
	if err != nil {
		return nil, err
	}
	iw := w.workers[worker]
	order := w.e.pl.Order[worker]
	tr := w.e.tr
	return func(s *sampler, i int) error {
		cur.Store(s)
		// Ingest: the ring drops its oldest file and takes a new one.
		var err error
		tr.root("delete", func() { err = cl.Delete(iw.ring[0]) })
		if err != nil {
			return err
		}
		path := iw.newPath()
		p := order[i%len(order)]
		t0 := time.Now()
		s.timed("write_file_ms", func() { err = w.write(cl, path, iw.payloads[p]) })
		if err != nil {
			return err
		}
		iw.ring = append(iw.ring[1:], path)
		s.countOver("write_bytes", float64(g.ingestFileSize), t0, time.Now())

		// Overwrite one hot file, which must invalidate its cached blocks.
		h := i % g.ingestHot
		p = order[(i+1)%len(order)]
		tr.root("delete", func() { err = cl.Delete(iw.hot[h]) })
		if err != nil {
			return err
		}
		t0 = time.Now()
		if err := w.write(cl, iw.hot[h], iw.payloads[p]); err != nil {
			return err
		}
		iw.hotSum[h] = iw.sums[p]
		s.countOver("write_bytes", float64(g.ingestFileSize), t0, time.Now())

		// Rescan the hot set: three files from the cache, one refetched.
		for k, path := range iw.hot {
			var data []byte
			t0 = time.Now()
			tr.root("read_file", func() { data, err = cl.ReadFile(path, "") })
			if err != nil {
				return err
			}
			if crc32c(data) != iw.hotSum[k] {
				return fmt.Errorf("%s: content differs from what was last written", path)
			}
			s.countOver("read_bytes", float64(len(data)), t0, time.Now())
		}
		return nil
	}, nil
}

func (w *ingestRescan) report(m *merged, r *WorkloadRecord) {
	m.addThroughput(r, "read_mibps", "read_bytes", 1.0/(1<<20))
	m.addThroughput(r, "write_mibps", "write_bytes", 1.0/(1<<20))
	m.addP50(r, "write_file_p50_ms", "write_file_ms", 1)
}
