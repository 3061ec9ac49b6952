# Convenience targets for the Ignem reproduction.

GO ?= go

.PHONY: all ci test race vet build fmt-check tidy-check determinism golden \
	chaos chaos-wal \
	bench-smoke bench bench-read bench-write bench-meta bench-meta-smoke \
	bench-scale bench-scale-smoke bench-alloc profile fuzz-smoke \
	bench-tier bench-tier-smoke bench-e2e bench-e2e-smoke \
	experiments examples tidy

all: vet test

# ci mirrors the GitHub Actions pipeline locally (the workflow calls
# these same targets, so the two cannot drift). The bench smoke job is
# excluded here because it takes minutes; run `make bench-smoke` to
# reproduce it. bench-meta-smoke stays in: the reduced metadata-plane
# suite finishes in seconds and guards the sharded plane end to end, and
# so does bench-e2e-smoke, the repository benchmark's own tests.
ci: vet build test race fmt-check tidy-check determinism chaos bench-alloc \
	bench-meta-smoke bench-scale-smoke bench-e2e-smoke

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Fails when any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Fails when go.mod/go.sum are not tidy.
tidy-check:
	$(GO) mod tidy -diff

# Guards the paper figures: the seeded-determinism test must pass, and
# two regenerations of the swim and table3 experiments must render
# byte-for-byte identical output (wall-time footer lines filtered).
# The sharded metadata plane extends the guard: shard count 1 must
# reproduce the unsharded figures bit for bit (same seeded rng stream),
# and shard count 4 must be deterministic across runs. The committed
# golden (internal/experiments/testdata/swim_table3.golden) pins the
# figures across PRs: at the default config — paper migration policy,
# no tier budgets, no SSD tier — the output must stay bit-identical to
# the pre-ladder pin-in-RAM master. Regenerate it deliberately with
# `make golden` when a change is *supposed* to move the figures.
determinism:
	$(GO) test ./internal/experiments -run TestSwimSeededRunsAreBitIdentical -count=1
	$(GO) run ./cmd/ignem-bench swim table3 | grep -v 'wall time' > /tmp/ignem-determinism-a.txt
	$(GO) run ./cmd/ignem-bench swim table3 | grep -v 'wall time' > /tmp/ignem-determinism-b.txt
	diff /tmp/ignem-determinism-a.txt /tmp/ignem-determinism-b.txt
	diff /tmp/ignem-determinism-a.txt internal/experiments/testdata/swim_table3.golden
	IGNEM_META_SHARDS=1 $(GO) run ./cmd/ignem-bench swim table3 | grep -v 'wall time' > /tmp/ignem-determinism-s1.txt
	diff /tmp/ignem-determinism-a.txt /tmp/ignem-determinism-s1.txt
	IGNEM_META_SHARDS=4 $(GO) run ./cmd/ignem-bench swim table3 | grep -v 'wall time' > /tmp/ignem-determinism-s4a.txt
	IGNEM_META_SHARDS=4 $(GO) run ./cmd/ignem-bench swim table3 | grep -v 'wall time' > /tmp/ignem-determinism-s4b.txt
	diff /tmp/ignem-determinism-s4a.txt /tmp/ignem-determinism-s4b.txt

# Re-bless the committed figure golden after an intentional change.
golden:
	$(GO) run ./cmd/ignem-bench swim table3 | grep -v 'wall time' > internal/experiments/testdata/swim_table3.golden

# The failure-recovery suite: the deterministic fault fabric's unit
# tests and the end-to-end chaos scenarios (datanode crash mid-write,
# namenode partition, master restart mid-migration, seeded replay),
# twice each and under the race detector — chaos that only passes once
# is not deterministic.
chaos:
	$(GO) test -count=2 ./internal/faultnet ./internal/chaos
	$(GO) test -race -count=1 ./internal/faultnet ./internal/chaos

# The durability suite on its own (it also runs as part of `make
# chaos`): the WAL crash-at-every-record sweep, checksum corruption
# recovery with and without readers, and retry-pump convergence
# through a one-way partition — plain and race-checked.
chaos-wal:
	$(GO) test -count=1 ./internal/wal
	$(GO) test -run 'TestWAL' -count=1 ./internal/chaos
	$(GO) test -race -count=1 ./internal/wal
	$(GO) test -race -run 'TestWAL' -count=1 ./internal/chaos

# Smoke-runs both benchmark suites and checks the JSON shape only — no
# throughput-ratio assertions, so it is safe on loaded shared runners.
bench-smoke:
	$(GO) run ./cmd/ignem-bench -readbench /tmp/ignem-smoke-read.json
	$(GO) run ./cmd/ignem-bench -writebench /tmp/ignem-smoke-write.json
	grep -q '"ns_per_op"' /tmp/ignem-smoke-read.json
	grep -q '"name": "BenchmarkRepeatedScanCached/tcp"' /tmp/ignem-smoke-read.json
	grep -q '"ns_per_op"' /tmp/ignem-smoke-write.json

# Allocation regression gate: pins the cached-read allocs/op ceiling,
# the ≥50% allocs/op drop on the uncached TCP block read, the bytes a
# whole-file read may allocate (≤1.5x the file, TCP and in-memory), the
# ≥4x heap-per-block reduction of the compact block map over the
# historical two-maps-per-block representation, and the ≤1 alloc/op
# ceiling on WAL appends. Counts only: wall-clock ratios are the
# repository benchmark's business (bench-e2e), not a test's.
bench-alloc:
	$(GO) test ./internal/readbench -run 'TestCachedReadAllocCeiling|TestLargeBlockReadAllocDrop' -count=1 -v
	$(GO) test ./internal/dfs/client -run 'TestReadFileAllocBytesCeiling' -count=1 -v
	$(GO) test ./internal/dfs/namenode -run 'TestBlockMapHeapPerBlock' -count=1 -v
	$(GO) test ./internal/wal -run 'TestWALAppendAllocCeiling' -count=1 -v

# Short deterministic-budget fuzz of every frame-codec fuzzer (the
# committed corpus always runs in plain `make test`; this explores).
fuzz-smoke:
	$(GO) test ./internal/transport -run XXX -fuzz '^FuzzFastUnitPayload$$' -fuzztime 10s
	$(GO) test ./internal/transport -run XXX -fuzz '^FuzzTCPRecvStream$$' -fuzztime 10s
	$(GO) test ./internal/dfs -run XXX -fuzz '^FuzzWriteBlockReqFrame$$' -fuzztime 10s
	$(GO) test ./internal/dfs -run XXX -fuzz '^FuzzReadBlockReqFrame$$' -fuzztime 10s
	$(GO) test ./internal/dfs -run XXX -fuzz '^FuzzReadBlockRespFrame$$' -fuzztime 10s

# Profile the data plane: CPU + mutex profiles of the swim experiment
# (the Ignem master's coarse lock under heartbeat/migration traffic) and
# CPU + heap + mutex profiles of the read benchmark suite (the TCP block
# path), which reads block by block, and a CPU profile of whole-file
# reads over TCP (BenchmarkReadFileTCP: striping and assembly, the part
# the block benchmarks never reach). Outputs land in ./profiles; inspect
# with
#   go tool pprof -top profiles/read.cpu.pprof
#   go tool pprof -top profiles/readfile.cpu.pprof
#   go tool pprof -sample_index=contentions -top profiles/swim.mutex.pprof
profile:
	mkdir -p profiles
	$(GO) run ./cmd/ignem-bench -cpuprofile profiles/swim.cpu.pprof \
		-mutexprofile profiles/swim.mutex.pprof swim
	$(GO) run ./cmd/ignem-bench -readbench /tmp/ignem-profile-read.json \
		-cpuprofile profiles/read.cpu.pprof -memprofile profiles/read.mem.pprof \
		-mutexprofile profiles/read.mutex.pprof
	$(GO) test ./internal/dfs/client -run '^$$' -bench '^BenchmarkReadFileTCP$$' -benchtime 100x \
		-o profiles/readfile.test -cpuprofile profiles/readfile.cpu.pprof

# The repository benchmark (BENCHMARK.json, bench/README.md): four
# workloads, every end-to-end metric, ~2 minutes. Pass arguments with
# `bash bench/run.sh -append hist.jsonl`, `-trace 1`, `-compare a b`.
bench-e2e:
	bash bench/run.sh

# The benchmark's own tests: every workload untraced and traced at a tiny
# geometry (shapes, never speeds), the comparator, and the tracer's
# "pooled buffers keep their single owner" check. bench/ is a module of
# its own, so `go test ./...` at the root does not reach it.
bench-e2e-smoke:
	cd bench && $(GO) test ./...

# Regenerate every paper table and figure as benchmarks.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run XXX .

# Read-path throughput benchmarks (striped ReadFile, Reader read-ahead)
# on both transports; machine-readable records land in BENCH_read.json.
bench-read:
	$(GO) run ./cmd/ignem-bench -readbench BENCH_read.json

# Write-path throughput benchmarks (pipelined Writer vs serial ingest)
# on both transports; machine-readable records land in BENCH_write.json.
bench-write:
	$(GO) run ./cmd/ignem-bench -writebench BENCH_write.json

# Metadata-plane throughput benchmarks (creates/opens/allocs per second
# vs namespace shard count {1,2,4,8} plus the unsharded baseline) on
# both transports; machine-readable records land in BENCH_meta.json.
bench-meta:
	$(GO) run ./cmd/ignem-bench -metabench BENCH_meta.json

# Reduced metadata-plane suite for CI: shard counts 1 and 4 with a small
# op budget, checked for completion and JSON shape only.
bench-meta-smoke:
	$(GO) run ./cmd/ignem-bench -metabench /tmp/ignem-smoke-meta.json -metabench-smoke
	grep -q '"name": "BenchmarkMetaAlloc/inmem/shards=4"' /tmp/ignem-smoke-meta.json
	grep -q '"name": "BenchmarkMetaCreate/tcp/unsharded"' /tmp/ignem-smoke-meta.json
	grep -q '"ops_per_sec"' /tmp/ignem-smoke-meta.json

# Control-plane scale harness: 1000 synthetic datanodes and a million
# blocks driving report intake on the modeled transport (TCP at reduced
# geometry) — full block reports vs incremental deltas, plus the cold
# reconnect storm with and without intake admission control, measured
# against an open-loop Zipf client fleet. Records land in
# BENCH_scale.json.
bench-scale:
	$(GO) run ./cmd/ignem-bench -scalebench BENCH_scale.json

# Reduced scale harness for CI: every phase exercised at a small
# geometry, checked for completion and JSON shape only.
bench-scale-smoke:
	$(GO) run ./cmd/ignem-bench -scalebench /tmp/ignem-smoke-scale.json -scalebench-smoke
	grep -q '"name": "BenchmarkScaleIncremental/inmem"' /tmp/ignem-smoke-scale.json
	grep -q '"name": "BenchmarkScaleStorm/tcp/gated"' /tmp/ignem-smoke-scale.json
	grep -q '"bytes_ratio"' /tmp/ignem-smoke-scale.json

# The migration-ladder comparison: the same tight-RAM SWIM workload
# under pin-in-RAM-only, the HDD→SSD→RAM ladder, and the popularity
# policy. Machine-readable records (task-time CDFs, tier occupancy
# timelines, master tier counters) land in BENCH_tier.json. The
# acceptance bar — ladder p99 task time ≥1.2x better than pin-RAM when
# the RAM budget is 25% of the working set — is enforced by
# internal/tierbench's tests; the smoke target additionally checks the
# record shape.
bench-tier:
	$(GO) run ./cmd/ignem-bench -tierbench BENCH_tier.json

bench-tier-smoke:
	$(GO) run ./cmd/ignem-bench -tierbench /tmp/ignem-smoke-tier.json -tierbench-smoke
	$(GO) test ./internal/tierbench -run TestLadderBeatsPinRAMAtTightRAMBudget -count=1
	grep -q '"name": "pin-ram"' /tmp/ignem-smoke-tier.json
	grep -q '"name": "ladder"' /tmp/ignem-smoke-tier.json
	grep -q '"p99_speedup_vs_pin_ram"' /tmp/ignem-smoke-tier.json
	grep -q '"occupancy"' /tmp/ignem-smoke-tier.json

# Regenerate every paper table and figure as rendered text (plus CSVs in
# ./data for plotting).
experiments:
	$(GO) run ./cmd/ignem-bench -out data

# Run every example end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/swim
	$(GO) run ./examples/wordcount
	$(GO) run ./examples/hive
	$(GO) run ./examples/failover
	$(GO) run ./examples/logscan

tidy:
	$(GO) mod tidy
	gofmt -w .
