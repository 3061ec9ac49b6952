package main

import "encoding/json"

// The four workloads. Names are fixed: later issues cite them.
const (
	wlScanCold     = "scan_cold"
	wlIngestRescan = "ingest_rescan"
	wlMetaMigrate  = "meta_migrate"
	wlPaperSim     = "paper_sim"
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{wlScanCold, "cold 512 MiB scan over TCP: bytes cross transport, dfs frames, datanode CRC and client striping; caches, namenode, ignem and wal stay idle"},
	{wlIngestRescan, "8 MiB pipelined writes beside block-cache re-reads with an overwrite each round: write path, cache hits and invalidation share transport, bufpool and the GC"},
	{wlMetaMigrate, "64 KiB-block job cycles with Migrate/Evict against a WAL-backed master: namenode handlers, control RPC codec, ignem planning and journal appends; almost no bytes"},
	{wlPaperSim, "virtual-clock paper-scale SWIM (HDFS, Ignem, RAM) plus the tier ladder at RAM=25%: host cost of simclock, scheduler, mapreduce and device model; sim_* values must not move"},
}

// Metric kinds. An endToEnd metric is printed by every workload and is
// what BENCHMARK.json bounds. A workloadMetric is one of the issue's
// named end-to-end metrics that only some workloads can report; it is
// in the run record and the comparator, with the issue's bound. A
// layerMetric comes from the traced run and has no bound.
const (
	kindEndToEnd = "end_to_end"
	kindWorkload = "workload"
	kindLayer    = "per_layer"
)

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Kind   string
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is the list every workload prints with -trace 0. The bounds
// come from measurement (README.md, "Steadiness"): over ten seeds the
// 2-core reference VM repeats a time within 6-11 % (inter-quartile, even
// for the single-threaded simulator), so the three time metrics take the
// contract's widest bound; peak memory repeats within 6 %.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", higher, 0.25, kindEndToEnd},
	{"op_p50_ms", "ms", lower, 0.25, kindEndToEnd},
	{"cpu_ms_per_op", "ms", lower, 0.25, kindEndToEnd},
	{"peak_rss_mib", "MiB", lower, 0.20, kindEndToEnd},
	{"setup_s", "s", lower, 0.25, kindEndToEnd},
}

// workloadMetrics are the issue's named end-to-end metrics, reported by
// the workloads that exercise them (README.md has the matrix).
var workloadMetrics = []metricSpec{
	{"read_mibps", "MiB/s", higher, 0.10, kindWorkload},
	{"read_block_p50_ms", "ms", lower, 0.10, kindWorkload},
	// Unbounded: its run-to-run spread is 20-60 %, so by the issue's rule
	// it is a per-layer metric (client.read_block_p99_ms), reported here
	// for the record only.
	{"read_block_p99_ms", "ms", lower, 0, kindWorkload},
	{"write_mibps", "MiB/s", higher, 0.10, kindWorkload},
	{"write_file_p50_ms", "ms", lower, 0.10, kindWorkload},
	{"meta_cycles_per_s", "1/s", higher, 0.10, kindWorkload},
	{"meta_open_p50_us", "us", lower, 0.10, kindWorkload},
	{"migrate_call_p50_ms", "ms", lower, 0.10, kindWorkload},
	{"sim_job_mean_s", "s", lower, 0.01, kindWorkload},
	{"sim_mem_read_frac", "ratio", higher, 0.01, kindWorkload},
	{"sim_task_p99_s", "s", lower, 0.01, kindWorkload},
	{"sim_host_s", "s", lower, 0.10, kindWorkload},
	{"op_tail_ms", "ms", lower, 0, kindWorkload},
	{"failed_ops_frac", "ratio", lower, 0, kindWorkload},
}

func layer(name, unit, better string) metricSpec {
	return metricSpec{name, unit, better, 0, kindLayer}
}

// perLayer is the list every workload prints with -trace 1; a metric a
// workload does not exercise reads 0 there.
var perLayer = []metricSpec{
	layer("client.read_self_us_per_block", "us", lower),
	layer("client.write_self_us_per_block", "us", lower),
	layer("client.allocs_per_block_read", "count", lower),
	layer("client.allocs_per_block_write", "count", lower),
	layer("client.nn_calls_per_cycle", "count", lower),
	layer("client.checksum_failures", "count", lower),
	layer("client.read_block_p50_ms", "ms", lower),
	layer("client.read_block_p99_ms", "ms", lower),
	layer("client.write_file_p50_ms", "ms", lower),
	layer("client.locations_p50_us", "us", lower),
	layer("client.migrate_p50_ms", "ms", lower),

	layer("blockcache.hit_ratio", "ratio", higher),
	layer("blockcache.evictions", "count", lower),
	layer("blockcache.rejects", "count", lower),
	layer("blockcache.hit_us_per_block", "us", lower),

	layer("transport.bulk_wire_us_per_mib", "us", lower),
	layer("transport.ctl_wire_us_per_call", "us", lower),
	layer("transport.calls_per_op", "count", lower),
	layer("transport.bulk_kib_per_op", "KiB", lower),
	layer("transport.allocs_per_bulk_call", "count", lower),
	layer("transport.echo_small_us", "us", lower),
	layer("transport.echo_4mib_us", "us", lower),

	layer("dfs.frame_encode_mibps", "MiB/s", higher),
	layer("dfs.frame_decode_mibps", "MiB/s", higher),

	layer("namenode.serve_us.locations", "us", lower),
	layer("namenode.serve_us.create", "us", lower),
	layer("namenode.serve_us.addblocks", "us", lower),
	layer("namenode.serve_us.complete", "us", lower),
	layer("namenode.serve_us.delete", "us", lower),
	layer("namenode.serve_us.migrate", "us", lower),
	layer("namenode.serve_us.evict", "us", lower),
	layer("namenode.serve_share", "ratio", lower),
	layer("namenode.heartbeats", "count", lower),
	layer("namenode.report_bytes", "B", lower),
	layer("namenode.busy_rejects", "count", lower),

	layer("datanode.serve_read_us_per_block", "us", lower),
	layer("datanode.serve_write_us_per_block", "us", lower),
	layer("datanode.pipeline_forward_us_per_block", "us", lower),

	layer("storage.modeled_share", "ratio", lower),
	layer("storage.sim_hdd_busy_frac", "ratio", lower),
	layer("storage.sim_ssd_slow_reads", "count", lower),
	layer("storage.device_host_ns_per_op", "ns", lower),

	layer("ignem.cmd_rpc_us_per_batch", "us", lower),
	layer("ignem.cmd_batches_per_migrate", "count", lower),
	layer("ignem.blocks_assigned", "count", higher),
	layer("ignem.send_failures", "count", lower),
	layer("ignem.retried_batches", "count", lower),
	layer("ignem.wal_records_per_migrate", "count", lower),
	layer("ignem.sim_migrated_blocks", "count", higher),
	layer("ignem.sim_discard_ratio", "ratio", lower),
	layer("ignem.sim_peak_pinned_mib_per_node", "MiB", lower),
	layer("ignem.sim_promotions_ram", "count", higher),
	layer("ignem.sim_promotions_ssd", "count", higher),
	layer("ignem.sim_climbs", "count", higher),
	layer("ignem.sim_demotions", "count", lower),
	layer("ignem.sim_budget_rejects_ram", "count", lower),

	layer("wal.append_us", "us", lower),
	layer("wal.replay_records_per_s", "1/s", higher),
	layer("wal.bytes_per_migrate", "B", lower),

	layer("simclock.events_per_host_s", "1/s", higher),
	layer("simclock.sim_s_per_host_s", "ratio", higher),

	layer("mapreduce.tasks", "count", higher),
	layer("mapreduce.tasks_per_host_s", "1/s", higher),
	layer("mapreduce.sim_task_mean_s_hdfs", "s", lower),
	layer("mapreduce.sim_task_mean_s_ignem", "s", lower),

	layer("experiments.sim_job_mean_s_hdfs", "s", lower),
	layer("experiments.sim_job_mean_s_ignem", "s", lower),
	layer("experiments.sim_job_mean_s_ram", "s", lower),
	layer("experiments.sim_mem_read_frac_ignem", "ratio", higher),
	layer("experiments.sim_task_p99_s_ladder", "s", lower),
	layer("experiments.sim_task_p99_s_pinram", "s", lower),

	layer("cluster.bringup_ms", "ms", lower),
	layer("cluster.preload_ms", "ms", lower),

	layer("trace.overhead_frac", "ratio", lower),
	layer("trace.layer_sum_over_root", "ratio", higher),
	layer("trace.unplaced_span_frac", "ratio", lower),
}

// specByName indexes every metric the harness can report.
var specByName = func() map[string]metricSpec {
	m := make(map[string]metricSpec)
	for _, list := range [][]metricSpec{endToEnd, workloadMetrics, perLayer} {
		for _, s := range list {
			m[s.Name] = s
		}
	}
	return m
}()

// runSeconds is BENCHMARK.json's run_seconds: how long the timed phase
// of one driver run measures.
const runSeconds = 15

// benchmarkJSON renders BENCHMARK.json from the tables above, so the
// file and the code cannot drift (spec_test.go compares them).
func benchmarkJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []pl           `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, pl{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
