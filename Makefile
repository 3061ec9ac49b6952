# Convenience targets for the Ignem reproduction.

GO ?= go

.PHONY: all ci test race vet build fmt-check tidy-check golden \
	chaos bench-alloc fuzz-smoke profile cover cover-check \
	reach-check cluster-smoke bench-e2e bench-e2e-smoke experiments tidy

all: vet test

# ci mirrors the GitHub Actions pipeline locally (the workflow calls
# these same targets, so the two cannot drift); CI's race job
# additionally runs fuzz-smoke.
ci: vet build test race fmt-check tidy-check chaos bench-alloc \
	cover-check reach-check cluster-smoke bench-e2e-smoke

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

# The paper's figures, one golden per experiment in the ignem-bench
# registry: internal/experiments/testdata/<id>.golden is the output of
# `ignem-bench <id>` with the wall-time footer line filtered. The IDs
# come from `ignem-bench -list`, so a registry entry cannot go unpinned.
# Tier-1 (TestExperimentsMatchGoldens) diffs every experiment against
# its golden, on the same run that checks its claims; the virtual clock
# makes every run repeat byte for byte, so any difference is a figure the
# change moved.
GOLDEN_DIR = internal/experiments/testdata
# Builds ignem-bench once into a temporary directory $$dir (removed on
# exit) and sets $$bin to it and $$ids to the registry's IDs, for the
# shell commands that follow; exits the shell if any of that fails.
WITH_BENCH = dir="$$(mktemp -d)" && trap 'rm -rf "$$dir"' EXIT && bin="$$dir/ignem-bench" && \
	$(GO) build -o "$$bin" ./cmd/ignem-bench && ids="$$("$$bin" -list | awk '{ print $$1 }')" && \
	[ -n "$$ids" ] || exit 1

# Re-bless the goldens after an intentional figure change: writes one
# per registry experiment. Review the `git diff` of the goldens before
# committing it. A golden whose ID left the registry is not deleted
# here: TestEveryExperimentHasAGolden names it, and it goes by hand.
golden:
	@$(WITH_BENCH); for id in $$ids; do \
		echo "golden: $$id"; \
		"$$bin" "$$id" > "$$dir/out" && grep -v 'wall time' "$$dir/out" > "$(GOLDEN_DIR)/$$id.golden" || exit 1; \
	done

# The failure-recovery suite: the deterministic fault fabric's unit
# tests and the end-to-end chaos scenarios (datanode crash mid-write,
# namenode partition, master restart mid-migration, seeded replay),
# twice each and under the race detector — chaos that only passes once
# is not deterministic. They include the durability scenarios
# (TestWAL*): the WAL crash-at-every-record sweep under the paper
# policy and the ladder, checksum corruption recovery with readers that
# verify, with one that cannot and with none (the scrubber), and
# retry-pump convergence through a one-way partition; the journal's own
# tests (./internal/wal) run in `make test` and `make race`. Then comes
# the replica-memory hammer (readers racing
# deletes and overwrites that recycle replica slots, over TCP, in memory
# and with reordered replies), whose race build poisons freed slots, the
# block-cache hammer (readers copying cache hits out of arena slots while
# a writer's overwrites invalidate them and the byte budget evicts them;
# its race build poisons the slots they free), and the unwritten-byte
# check (ReadFile's unzeroed result holds exactly the written bytes
# through cache hits and a mid-file checksum failover, and a
# wrong-length replica fails the read with no result), whose race build
# poisons memory allocated without zero-fill.
chaos:
	$(GO) test -count=2 ./internal/faultnet ./internal/chaos
	$(GO) test -race -count=1 ./internal/faultnet ./internal/chaos
	$(GO) test -count=2 -run '^(TestReplicaSlotsUnderDeleteAndOverwrite|TestCachedReadsUnderInvalidation|TestReadFileReturnsOnlyWrittenBytes)$$' ./internal/dfs/client
	$(GO) test -race -count=1 -run '^(TestReplicaSlotsUnderDeleteAndOverwrite|TestCachedReadsUnderInvalidation|TestReadFileReturnsOnlyWrittenBytes)$$' ./internal/dfs/client

# Allocation regression gate. Counts only: wall-clock ratios are the
# repository benchmark's business (bench-e2e), not a test's. It pins
# - client: the cached-read allocs/op ceiling; ≤20 allocations and
#   ≤256 KiB for an uncached 4 MiB TCP block read (a fresh payload per
#   read would be 4 MiB); ≤1.5x the file allocated by a whole-file read,
#   over TCP and in memory; ≤1/32 of the file allocated on the heap by
#   a whole-file write at replication 2 (replicas live in arena slots
#   outside the heap; heap replicas made 2x, a staged copy 3x); no arena
#   chunk mapped by a thousand write/delete cycles after warm-up, and no
#   block-cache arena chunk by a thousand overwrite-and-read cycles;
# - namenode: ≥4x less heap per block for the compact block map than
#   for two maps per block; zero allocations for a replication sweep over
#   a healthy namespace, full or queued, and no block visited by a queued
#   one; allocations independent of the file size for a one-block ranged
#   getLocations;
# - wal: ≤1 alloc per append;
# - ignem: the slave's eviction tombstones, held for ≤ one lifetime's
#   jobs, with a constant number examined per evict batch;
# - simclock: zero allocations per virtual-clock Sleep, per RecvTimeout
#   that a delivery answers and per one that times out, and per
#   Cond.Wait/Signal cycle; zero per short scaled real-clock Sleep;
# - storage: zero allocations per queued Device.Read;
# - datanode: zero allocations per idle heartbeat build-and-succeed
#   cycle, one (its ID list) with a pin delta;
# - transport: ≤3 allocations per virtual-clock echo RPC over the
#   in-memory transport; ≤8 allocations and ≤1/64 of the payload in
#   bytes for an in-memory 1 MiB CallInto whose bulk reply lands in dst
#   (a copy per call into a fresh or pooled buffer would be the payload);
# - dfs: two control RPCs over TCP loopback, both ends counted: ≤14 for
#   a getLocations-shaped call, ≤7 for a two-command MigrateBatch.
bench-alloc:
	$(GO) test ./internal/dfs/client -run 'TestCachedReadAllocCeiling|TestLargeBlockReadAllocDrop|TestReadFileAllocBytesCeiling|TestWriteFileAllocBytesCeiling|TestReplicaArenaReusesSlots|TestCacheArenaReusesSlots' -count=1 -v
	$(GO) test ./internal/dfs/namenode -run 'TestBlockMapHeapPerBlock|TestRepairScanHealthyAllocs|TestRangedLocationsAllocs' -count=1 -v
	$(GO) test ./internal/wal -run 'TestWALAppendAllocCeiling' -count=1 -v
	$(GO) test ./internal/ignem -run 'TestTombstonePruneBounded' -count=1 -v
	$(GO) test ./internal/simclock -run 'TestVirtualSleepAllocs|TestVirtualRecvTimeoutAllocs|TestVirtualCondAllocs|TestRealSleepAllocs' -count=1 -v
	$(GO) test ./internal/storage -run 'TestDeviceReadAllocs' -count=1 -v
	$(GO) test ./internal/dfs/datanode -run 'TestHeartbeatCycleAllocs' -count=1 -v
	$(GO) test ./internal/transport -run 'TestInmemEchoAllocs|TestInmemBulkCallIntoAllocs' -count=1 -v
	$(GO) test ./internal/dfs -run 'TestControlCallAllocCeiling' -count=1 -v

# Short deterministic-budget fuzz of every fuzzer: the frame codecs and
# the migration journal's record decoder (the committed corpus always
# runs in plain `make test`; this explores). The list comes from
# `go test -list`, so a new fuzzer is picked up and a deleted one cannot
# leave behind a pattern that matches nothing and passes.
fuzz-smoke:
	@out="$$($(GO) test -list '^Fuzz' ./...)" || { echo "$$out"; exit 1; }; \
	list="$$(echo "$$out" | awk '/^Fuzz/ { f = f " " $$1 } /^ok / { if (f != "") print $$2 f; f = "" }')"; \
	[ -n "$$list" ] || { echo "fuzz-smoke: no fuzzers found"; exit 1; }; \
	echo "$$list" | while read -r pkg fuzzers; do \
		for f in $$fuzzers; do \
			echo "$(GO) test $$pkg -run XXX -fuzz ^$$f\$$ -fuzztime 10s"; \
			$(GO) test $$pkg -run XXX -fuzz "^$$f\$$" -fuzztime 10s || exit 1; \
		done; \
	done

# Profile the data plane: CPU + mutex profiles of the swim experiment
# (the Ignem master's coarse lock under heartbeat/migration traffic),
# CPU + heap + mutex profiles of single-block reads over TCP
# (BenchmarkReadBlockTCP: transport, frame codec, buffer pool), and CPU
# profiles of whole-file reads and writes over TCP (BenchmarkReadFileTCP:
# striping and assembly; BenchmarkWriteFileTCP: the writer's window and
# the datanode pipeline; the parts the block benchmark never reaches).
# Outputs land in ./profiles; inspect with
#   go tool pprof -top profiles/read.cpu.pprof
#   go tool pprof -top profiles/readfile.cpu.pprof
#   go tool pprof -top profiles/writefile.cpu.pprof
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
	$(GO) test ./internal/dfs/client -run '^$$' -bench '^BenchmarkWriteFileTCP$$' -benchtime 50x \
		-o profiles/writefile.test -cpuprofile profiles/writefile.cpu.pprof

# Coverage as a deletion input: total statement coverage of the product
# code (internal/ and cmd/) by the tier-1 tests, then every product
# function no test executes. A function listed here either needs a test
# or has no caller and should go.
cover:
	mkdir -p profiles
	$(GO) test -coverpkg=./internal/...,./cmd/... -coverprofile profiles/cover.out ./internal/...
	@$(GO) tool cover -func profiles/cover.out | awk '$$NF == "0.0%" { print; n++ } \
		/^total:/ { total = $$NF } END { printf "%d functions at 0%%; total statement coverage %s\n", n, total }'

# Keeps the 0% list closed: runs cover, then fails on any function at 0%.
# cover-check asks whether every product function is tested; reach-check
# asks the converse, whether every tested function is a product function.
cover-check: cover
	@$(GO) tool cover -func profiles/cover.out | awk '$$NF == "0.0%" { \
		print "untested:", $$0; bad = 1 } END { exit bad }'

# Keeps every product function in some binary: builds each main package
# of the root module and bench/ without inlining, lists their text
# symbols with `go tool nm`, and fails on any non-test function none of
# them links, unless tools/reachcheck/allow.txt names it with a reason
# (fault-injection code and test harnesses). A field pass type-checks the
# same code and fails on any exported field of a component config struct
# (cluster, datanode, namenode, slave, scheduler, mapreduce job and
# real-data job, the SWIM experiment) that no non-test file outside its
# declaring file names: an option only tests
# set. An allow entry that matches nothing fails too, so the list only
# shrinks.
reach-check:
	$(GO) run ./tools/reachcheck

# The live cluster end to end: builds ignem-cluster and runs its demo
# (namenode and three datanodes on loopback ports; write, cold read,
# migrate, hot read, evict) under a timeout, and fails unless the pins
# drain back to zero.
cluster-smoke:
	@dir="$$(mktemp -d)" && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/ignem-cluster" ./cmd/ignem-cluster && \
	timeout 60 "$$dir/ignem-cluster" -nodes 3 -blocks 2 -block-mb 1 | tee "$$dir/out" && \
	grep -q "pinned memory back to zero" "$$dir/out"

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

# Regenerate every paper table and figure as rendered text (plus CSVs in
# ./data for plotting).
experiments:
	$(GO) run ./cmd/ignem-bench -out data

tidy:
	$(GO) mod tidy
	gofmt -w .
