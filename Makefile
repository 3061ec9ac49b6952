# Convenience targets for the Ignem reproduction.

GO ?= go

.PHONY: all ci test race vet build fmt-check tidy-check determinism golden \
	chaos chaos-wal bench-alloc fuzz-smoke profile cover \
	bench-e2e bench-e2e-smoke bench experiments examples tidy

all: vet test

# ci mirrors the GitHub Actions pipeline locally (the workflow calls
# these same targets, so the two cannot drift); CI's race and chaos jobs
# additionally run fuzz-smoke and chaos-wal.
ci: vet build test race fmt-check tidy-check determinism chaos bench-alloc \
	bench-e2e-smoke

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
# recovery with readers that verify (the reader detects, the holder
# confirms, drops and reports), with readers that cannot (checksums off,
# or a file written without them: the datanode verifies before serving
# and rotten bytes never leave it) and with no readers (the scrubber),
# and retry-pump convergence through a one-way partition — plain and
# race-checked.
chaos-wal:
	$(GO) test -count=1 ./internal/wal
	$(GO) test -run 'TestWAL' -count=1 ./internal/chaos
	$(GO) test -race -count=1 ./internal/wal
	$(GO) test -race -run 'TestWAL' -count=1 ./internal/chaos

# Allocation regression gate: pins the cached-read allocs/op ceiling,
# the ≥50% allocs/op drop on the uncached TCP block read, the bytes a
# whole-file read may allocate (≤1.5x the file, TCP and in-memory), the
# ≥4x heap-per-block reduction of the compact block map over the
# historical two-maps-per-block representation, the constant (block-
# count-independent) allocations of a replication sweep over a healthy
# namespace, the ≤1 alloc/op ceiling on WAL appends, and the slave's
# eviction tombstones: held ≤ one lifetime's jobs, a constant number
# examined per evict batch. Counts only: wall-clock ratios are the
# repository benchmark's business (bench-e2e), not a test's.
bench-alloc:
	$(GO) test ./internal/dfs/client -run 'TestCachedReadAllocCeiling|TestLargeBlockReadAllocDrop|TestReadFileAllocBytesCeiling' -count=1 -v
	$(GO) test ./internal/dfs/namenode -run 'TestBlockMapHeapPerBlock|TestRepairScanHealthyAllocs' -count=1 -v
	$(GO) test ./internal/wal -run 'TestWALAppendAllocCeiling' -count=1 -v
	$(GO) test ./internal/ignem -run 'TestTombstonePruneBounded' -count=1 -v

# Short deterministic-budget fuzz of every frame-codec fuzzer (the
# committed corpus always runs in plain `make test`; this explores).
fuzz-smoke:
	$(GO) test ./internal/transport -run XXX -fuzz '^FuzzFastUnitPayload$$' -fuzztime 10s
	$(GO) test ./internal/transport -run XXX -fuzz '^FuzzTCPRecvStream$$' -fuzztime 10s
	$(GO) test ./internal/dfs -run XXX -fuzz '^FuzzWriteBlockReqFrame$$' -fuzztime 10s
	$(GO) test ./internal/dfs -run XXX -fuzz '^FuzzReadBlockReqFrame$$' -fuzztime 10s
	$(GO) test ./internal/dfs -run XXX -fuzz '^FuzzReadBlockRespFrame$$' -fuzztime 10s

# Profile the data plane: CPU + mutex profiles of the swim experiment
# (the Ignem master's coarse lock under heartbeat/migration traffic),
# CPU + heap + mutex profiles of single-block reads over TCP
# (BenchmarkReadBlockTCP: transport, frame codec, buffer pool), and a CPU
# profile of whole-file reads over TCP (BenchmarkReadFileTCP: striping
# and assembly, the part the block benchmark never reaches). Outputs land
# in ./profiles; inspect with
#   go tool pprof -top profiles/read.cpu.pprof
#   go tool pprof -top profiles/readfile.cpu.pprof
#   go tool pprof -sample_index=contentions -top profiles/swim.mutex.pprof
profile:
	mkdir -p profiles
	$(GO) run ./cmd/ignem-bench -cpuprofile profiles/swim.cpu.pprof \
		-mutexprofile profiles/swim.mutex.pprof swim
	$(GO) test ./internal/dfs/client -run '^$$' -bench '^BenchmarkReadBlockTCP$$' -benchtime 300x \
		-o profiles/read.test -cpuprofile profiles/read.cpu.pprof \
		-memprofile profiles/read.mem.pprof -mutexprofile profiles/read.mutex.pprof
	$(GO) test ./internal/dfs/client -run '^$$' -bench '^BenchmarkReadFileTCP$$' -benchtime 100x \
		-o profiles/readfile.test -cpuprofile profiles/readfile.cpu.pprof

# Coverage as a deletion input: total statement coverage of the product
# code (internal/ and cmd/) by the tier-1 tests, then every product
# function no test executes. A function listed here either needs a test
# or has no caller and should go.
cover:
	mkdir -p profiles
	$(GO) test -coverpkg=./internal/...,./cmd/... -coverprofile profiles/cover.out ./internal/...
	@$(GO) tool cover -func profiles/cover.out | awk '$$NF == "0.0%" { print; n++ } \
		/^total:/ { total = $$NF } END { printf "%d functions at 0%%; total statement coverage %s\n", n, total }'

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
