package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dfs/client"
)

// scanCold: workers loop ReadFile over 8 x 64 MiB files in seeded
// order, with no client block cache. See README.md for why.
type scanCold struct {
	realBase
	sums []uint32
}

func scanPath(f int) string { return fmt.Sprintf("/scan/f%d", f) }

func (w *scanCold) setup(e *env) (bringup, preload time.Duration, err error) {
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
	buf := make([]byte, g.scanFileSize)
	for f := 0; f < g.scanFiles; f++ {
		fillPayload(buf, e.pl.PayloadSeeds[f])
		w.sums = append(w.sums, crc32c(buf))
		if err := cl.WriteFile(scanPath(f), buf, int64(g.scanBlockSize), replication); err != nil {
			return 0, 0, err
		}
	}
	return bringup, time.Since(t0) - bringup, nil
}

// observeBlocks returns a read observer feeding whichever sampler cur
// points at. Block durations are on the scaled clock.
func observeBlocks(cur *atomic.Pointer[sampler]) client.Option {
	return client.WithReadObserver(func(ev client.BlockReadEvent) {
		if s := cur.Load(); s != nil {
			s.observe("read_block_ms", float64(ev.Duration)/1e6/clockScale)
		}
	})
}

func (w *scanCold) step(worker int) (func(*sampler, int) error, error) {
	var cur atomic.Pointer[sampler]
	cl, err := w.client(observeBlocks(&cur))
	if err != nil {
		return nil, err
	}
	order := w.e.pl.Order[worker]
	return func(s *sampler, i int) error {
		cur.Store(s)
		f := order[i%len(order)]
		t0 := time.Now()
		var data []byte
		var err error
		w.e.tr.root("read_file", func() { data, err = cl.ReadFile(scanPath(f), "") })
		if err != nil {
			return err
		}
		if crc32c(data) != w.sums[f] {
			return fmt.Errorf("%s: content differs from what was written", scanPath(f))
		}
		s.countOver("read_bytes", float64(len(data)), t0, time.Now())
		return nil
	}, nil
}

func (w *scanCold) report(m *merged, r *WorkloadRecord) {
	m.addThroughput(r, "read_mibps", "read_bytes", 1.0/(1<<20))
	m.addP50(r, "read_block_p50_ms", "read_block_ms", 1)
	all := m.pooled("read_block_ms")
	per := m.perSegment("read_block_ms", 0.99)
	r.addSummary("read_block_p99_ms", quantile(all, 0.99), len(all), per)
}
