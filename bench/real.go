package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/blockcache"
	"repro/internal/dfs/client"
	"repro/internal/dfs/namenode"
	"repro/internal/ignem"
	"repro/internal/storage"
	"repro/internal/transport"
)

// env is what a run hands its workload.
type env struct {
	pl      *plan
	tr      *tracer // nil in an untraced run
	workers int
	tmpDir  string
}

// wrapNet is the cluster's network seam: the tracer's view when
// tracing, nothing otherwise.
func (e *env) wrapNet() func(string, transport.Network) transport.Network {
	if e.tr == nil {
		return nil
	}
	return e.tr.net
}

// realWorkload is a closed-loop workload on the TCP cluster.
type realWorkload interface {
	// setup brings the cluster up and loads its inputs, reporting how
	// long each took.
	setup(e *env) (bringup, preload time.Duration, err error)
	// step returns worker w's operation; each call is one primary op.
	step(w int) (func(s *sampler, i int) error, error)
	// report adds the workload's own end-to-end metrics.
	report(m *merged, r *WorkloadRecord)
	// shared is the state every real-clock workload has.
	shared() *realBase
	close()
}

// realBase is what the three real-clock workloads have in common.
type realBase struct {
	e   *env
	c   *tcpCluster
	cls []*client.Client
	// written is the user bytes written so far; the modeled buffer-cache
	// time of a write is not visible through any device accessor.
	written atomic.Int64
	// wal is the master's journal, nil for a workload without one.
	wal *tracedWAL
}

func (b *realBase) shared() *realBase { return b }

// client dials a worker's client and keeps it for close.
func (b *realBase) client(opts ...client.Option) (*client.Client, error) {
	cl, err := b.c.client(opts...)
	if err == nil {
		b.cls = append(b.cls, cl)
	}
	return cl, err
}

func (b *realBase) close() {
	for _, cl := range b.cls {
		cl.Close()
	}
	if b.c != nil {
		b.c.close()
	}
}

// checksumFailures sums the clients' end-to-end checksum mismatches. The
// client fails over to another replica, so the read succeeds; the
// benchmark still counts it as a failed operation.
func (b *realBase) checksumFailures() int64 {
	var n int64
	for _, cl := range b.cls {
		n += cl.ChecksumFailures()
	}
	return n
}

func newRealWorkload(name string) realWorkload {
	switch name {
	case wlScanCold:
		return &scanCold{}
	case wlIngestRescan:
		return &ingestRescan{}
	default:
		return &metaMigrate{}
	}
}

// runReal measures one real-clock workload, untraced.
func runReal(name string, e *env, seconds float64, rec *WorkloadRecord) error {
	rec.ClockScale = clockScale
	var wl realWorkload
	var setups []float64
	for i := 0; i < g.setupRepeats; i++ {
		if wl != nil {
			wl.close()
			wl = nil // or the old cluster's blocks stay reachable
			releaseMemory()
		}
		wl = newRealWorkload(name)
		t0 := time.Now()
		if _, _, err := wl.setup(e); err != nil {
			wl.close()
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer wl.close()

	steps, err := workerSteps(wl, e.workers)
	if err != nil {
		return err
	}
	m, cost := closedLoop(secondsToDuration(seconds), steps, rec)
	m.addGeneric(rec, cost)
	rec.add("peak_rss_mib", peakRSSMiB())
	rec.addSegments("setup_s", setups)
	wl.report(m, rec)
	if n := wl.shared().checksumFailures(); n > 0 {
		rec.fail(fmt.Errorf("%d block reads failed their end-to-end checksum", n))
	}
	return nil
}

func workerSteps(wl realWorkload, workers int) ([]func(*sampler, int) error, error) {
	steps := make([]func(*sampler, int) error, workers)
	for w := range steps {
		step, err := wl.step(w)
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", w, err)
		}
		steps[w] = step
	}
	return steps, nil
}

func secondsToDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// releaseMemory returns a torn-down cluster's heap to the OS, so the
// next set-up's peak is its own.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// snapshot is the stats a traced phase is diffed over.
type snapshot struct {
	nn      namenode.Stats
	master  ignem.MasterStats
	cache   blockcache.Stats
	modeled float64
	written int64
	walB    int64
}

func takeSnapshot(b *realBase) snapshot {
	s := snapshot{
		nn:      b.c.nn.Stats(),
		master:  b.c.nn.Master().Stats(),
		modeled: b.c.modeledBusy(),
		written: b.written.Load(),
	}
	for _, cl := range b.cls {
		cs := cl.CacheStats()
		s.cache.Hits += cs.Hits
		s.cache.Misses += cs.Misses
		s.cache.Evictions += cs.Evictions
		s.cache.Rejects += cs.Rejects
	}
	if b.wal != nil {
		s.walB = b.wal.bytes.Load()
	}
	return s
}

// runRealTraced is the traced run: one worker, a third of the time
// untraced (the base for trace.overhead_frac and the client-boundary
// latencies), the rest traced.
func runRealTraced(name string, e *env, seconds float64, traceOut string, rec *WorkloadRecord) error {
	rec.ClockScale = clockScale
	wl := newRealWorkload(name)
	bringup, preload, err := wl.setup(e)
	if err != nil {
		wl.close()
		return fmt.Errorf("set-up: %w", err)
	}
	defer wl.close()
	rec.add("cluster.bringup_ms", float64(bringup)/1e6)
	rec.add("cluster.preload_ms", float64(preload)/1e6)

	steps, err := workerSteps(wl, 1)
	if err != nil {
		return err
	}
	// The first seconds after set-up run slow (heap, buffer pool and
	// socket buffers are still growing); keep them out of both phases.
	closedLoop(secondsToDuration(seconds*warmupShare), steps, rec)

	// Phase A: tracing off.
	base, _ := closedLoop(secondsToDuration(seconds/3), steps, rec)
	base.addP50(rec, "client.read_block_p50_ms", "read_block_ms", 1)
	if all := base.pooled("read_block_ms"); len(all) > 0 {
		rec.add("client.read_block_p99_ms", quantile(all, 0.99))
	}
	base.addP50(rec, "client.write_file_p50_ms", "write_file_ms", 1)
	base.addP50(rec, "client.locations_p50_us", "locations_ms", 1e3)
	base.addP50(rec, "client.migrate_p50_ms", "migrate_ms", 1)

	// Phase B: tracing on.
	timed := secondsToDuration(seconds * 2 / 3)
	before := takeSnapshot(wl.shared())
	e.tr.on.Store(true)
	traced, _ := closedLoop(timed, steps, rec)
	e.tr.on.Store(false)
	after := takeSnapshot(wl.shared())

	baseRate, tracedRate := median(base.rates("ops", 1)), median(traced.rates("ops", 1))
	if baseRate > 0 {
		rec.add("trace.overhead_frac", 1-tracedRate/baseRate)
	}

	spans, unplaced := assemble(e.tr.take())
	if traceOut != "" {
		if err := writeSpans(traceOut, spans); err != nil {
			return err
		}
	}
	a := analyze(spans, unplaced)
	// closedLoop's warm-up is traced too, so spans cover more ops than
	// the segments count; rates below use the span counts themselves.
	a.layerMetrics(rec, name)

	workerSec := timed.Seconds() * (1 + warmupShare)
	modeled := after.modeled - before.modeled +
		float64(after.written-before.written)*replication/(storage.RAMSpec().SeqWriteMBps*1e6)/clockScale
	rec.add("storage.modeled_share", modeled/workerSec)
	rec.add("namenode.serve_share", a.nnServeSec/workerSec)

	rec.add("namenode.heartbeats", float64(after.nn.Heartbeats-before.nn.Heartbeats))
	rec.add("namenode.report_bytes", float64(after.nn.ReportBytes-before.nn.ReportBytes))
	rec.add("namenode.busy_rejects", float64(after.nn.BusyRejects-before.nn.BusyRejects))
	lookups := float64(after.cache.Hits - before.cache.Hits + after.cache.Misses - before.cache.Misses)
	if lookups > 0 {
		rec.add("blockcache.hit_ratio", float64(after.cache.Hits-before.cache.Hits)/lookups)
	}
	rec.add("blockcache.evictions", float64(after.cache.Evictions-before.cache.Evictions))
	rec.add("blockcache.rejects", float64(after.cache.Rejects-before.cache.Rejects))
	sumFail := wl.shared().checksumFailures()
	rec.add("client.checksum_failures", float64(sumFail))
	if sumFail > 0 {
		rec.fail(fmt.Errorf("%d block reads failed their end-to-end checksum", sumFail))
	}
	rec.add("ignem.blocks_assigned", float64(after.master.BlocksAssigned-before.master.BlocksAssigned))
	rec.add("ignem.send_failures", float64(after.master.SendFailures-before.master.SendFailures))
	rec.add("ignem.retried_batches", float64(after.master.RetriedBatches-before.master.RetriedBatches))
	if migrates := float64(after.master.MigrateReqs - before.master.MigrateReqs); migrates > 0 {
		rec.add("ignem.wal_records_per_migrate", float64(after.master.WALRecords-before.master.WALRecords)/migrates)
		rec.add("wal.bytes_per_migrate", float64(after.walB-before.walB)/migrates)
	}

	if err := runProbes(name, e, rec); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	a.printLayerTable(os.Stdout)
	isolationChecks(name, rec)
	return nil
}

// isolationChecks asserts that the workload loads and bypasses the
// layers it claims to.
func isolationChecks(name string, rec *WorkloadRecord) {
	if !g.isolation {
		return
	}
	val := func(metric string) float64 {
		m, _ := rec.metric(metric)
		return m.Value
	}
	share := val("storage.modeled_share")
	rec.check("modeled_share<=0.05", share <= 0.05, "storage.modeled_share = %.4f", share)
	sum := val("trace.layer_sum_over_root")
	rec.check("layer_sum~root", sum > 0.9 && sum < 1.1, "trace.layer_sum_over_root = %.4f", sum)
	switch name {
	case wlScanCold:
		hit, _ := rec.metric("blockcache.hit_ratio")
		rec.check("blockcache.hit_ratio==0", hit.Value == 0, "blockcache.hit_ratio = %g", hit.Value)
		nn := val("namenode.serve_share")
		rec.check("namenode.serve_share<0.05", nn < 0.05, "namenode.serve_share = %.4f", nn)
	case wlMetaMigrate:
		kib := val("transport.bulk_kib_per_op")
		rec.check("bulk_kib_per_op<1024", kib < 1024, "transport.bulk_kib_per_op = %.1f", kib)
	}
}
