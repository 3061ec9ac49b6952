package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/dfs"
	"repro/internal/wal"
)

// metaMigrate: each worker repeats a job cycle on four one-block
// (64 KiB) files: write them, Info, eight Locations, Migrate, read them
// back as the job, Evict, Delete. See README.md.
type metaMigrate struct {
	realBase
	walDir   string
	payloads [][]byte
	sums     []uint32
}

// tracedWAL is the benchmark's view of the master's journal: the file
// backend the product ships, with every append counted and — while
// tracing — timed as a span of the wal layer on the namenode.
type tracedWAL struct {
	wal.Backend
	tr    *tracer // nil in an untraced run
	bytes atomic.Int64
}

func (b *tracedWAL) Append(p []byte) error {
	b.bytes.Add(int64(len(p)))
	if b.tr == nil || !b.tr.on.Load() {
		return b.Backend.Append(p)
	}
	start := b.tr.now()
	err := b.Backend.Append(p)
	b.tr.add(span{
		Layer: layerWAL, Name: "wal.append", Side: sideInproc, Node: "namenode",
		Bytes: int64(len(p)), Start: start, End: b.tr.now(),
	})
	return err
}

func (w *metaMigrate) setup(e *env) (bringup, preload time.Duration, err error) {
	w.e = e
	t0 := time.Now()
	if w.walDir, err = os.MkdirTemp(e.tmpDir, "wal-"); err != nil {
		return 0, 0, err
	}
	fb, err := wal.OpenFile(w.walDir, "ignem-master.wal")
	if err != nil {
		return 0, 0, err
	}
	w.wal = &tracedWAL{Backend: fb, tr: e.tr}
	if w.c, err = startTCP(tcpConfig{seed: e.pl.Seed, walBackend: w.wal, wrap: e.wrapNet()}); err != nil {
		fb.Close()
		return 0, 0, err
	}
	bringup = time.Since(t0)
	for f := 0; f < g.metaFilesPerJob; f++ {
		buf := make([]byte, g.metaBlockSize)
		fillPayload(buf, e.pl.PayloadSeeds[f])
		w.payloads = append(w.payloads, buf)
		w.sums = append(w.sums, crc32c(buf))
	}
	cl, err := w.c.client()
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	for f := 0; f < g.metaStanding; f++ {
		path := fmt.Sprintf("/meta/standing/f%d", f)
		if err := cl.WriteFile(path, w.payloads[f%len(w.payloads)], int64(g.metaBlockSize), replication); err != nil {
			return 0, 0, err
		}
	}
	return bringup, time.Since(t0) - bringup, nil
}

func (w *metaMigrate) step(worker int) (func(*sampler, int) error, error) {
	var cur atomic.Pointer[sampler]
	cl, err := w.client(observeBlocks(&cur))
	if err != nil {
		return nil, err
	}
	order := w.e.pl.Order[worker]
	tr := w.e.tr
	paths := make([]string, g.metaFilesPerJob)
	return func(s *sampler, i int) error {
		cur.Store(s)
		job := dfs.JobID(fmt.Sprintf("job-w%d-%d", worker, i))
		var err error
		for f := range paths {
			paths[f] = fmt.Sprintf("/meta/w%d/c%d/f%d", worker, i, f)
			s.timed("write_file_ms", func() {
				tr.root("write_file", func() {
					err = cl.WriteFile(paths[f], w.payloads[f], int64(g.metaBlockSize), replication)
				})
			})
			if err != nil {
				return err
			}
			w.written.Add(int64(g.metaBlockSize))
		}
		for _, path := range paths {
			tr.root("info", func() { _, err = cl.Info(path) })
			if err != nil {
				return err
			}
		}
		for k := 0; k < g.metaLocations; k++ {
			path := paths[order[(i*g.metaLocations+k)%len(order)]]
			var blocks []dfs.LocatedBlock
			s.timed("locations_ms", func() {
				tr.root("locations", func() { blocks, err = cl.Locations(path) })
			})
			if err != nil {
				return err
			}
			if len(blocks) != 1 || len(blocks[0].Nodes) != replication {
				return fmt.Errorf("%s: located %d blocks, want 1 on %d nodes", path, len(blocks), replication)
			}
		}
		var assigned dfs.MigrateResp
		s.timed("migrate_ms", func() {
			tr.root("migrate", func() { assigned, err = cl.Migrate(job, paths, false) })
		})
		if err != nil {
			return err
		}
		for f, path := range paths {
			var data []byte
			tr.root("read_file", func() { data, err = cl.ReadFile(path, job) })
			if err != nil {
				return err
			}
			if crc32c(data) != w.sums[f] {
				return fmt.Errorf("%s: content differs from what was written", path)
			}
		}
		var evicted int
		tr.root("evict", func() { evicted, err = cl.Evict(job, paths) })
		if err != nil {
			return err
		}
		if evicted != assigned.Blocks || evicted != g.metaFilesPerJob {
			return fmt.Errorf("%s: Evict released %d blocks, Migrate assigned %d, want %d",
				job, evicted, assigned.Blocks, g.metaFilesPerJob)
		}
		for _, path := range paths {
			tr.root("delete", func() { err = cl.Delete(path) })
			if err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (w *metaMigrate) report(m *merged, r *WorkloadRecord) {
	m.addThroughput(r, "meta_cycles_per_s", "ops", 1)
	m.addP50(r, "meta_open_p50_us", "locations_ms", 1e3)
	m.addP50(r, "migrate_call_p50_ms", "migrate_ms", 1)
}

func (w *metaMigrate) close() {
	w.realBase.close() // closes the journal and its backend
	if w.walDir != "" {
		os.RemoveAll(w.walDir)
	}
}
