package readbench

import (
	"testing"

	"repro/internal/dfs/client"
)

func withCluster(b *testing.B, fn func(b *testing.B, c *Cluster)) {
	for _, kind := range []Transport{Inmem, TCP} {
		b.Run(string(kind), func(b *testing.B) {
			c, err := Start(kind)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			fn(b, c)
		})
	}
}

func BenchmarkReadFileSerial(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchReadFile(b, c, 1) })
}

func BenchmarkReadFileParallel(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchReadFile(b, c, 4) })
}

func BenchmarkReaderStream(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchReaderStream(b, c, 0) })
}

func BenchmarkReaderStreamReadAhead(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchReaderStream(b, c, client.DefaultReadAhead) })
}

func BenchmarkRepeatedScanUncached(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchRepeatedScan(b, c, 0) })
}

func BenchmarkRepeatedScanCached(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchRepeatedScan(b, c, RepeatedScanCacheBytes) })
}

func BenchmarkLargeBlockReadFast(b *testing.B) {
	c, err := StartLargeTCP(true)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	BenchLargeBlockRead(b, c)
}

func BenchmarkLargeBlockReadGob(b *testing.B) {
	c, err := StartLargeTCP(false)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	BenchLargeBlockRead(b, c)
}

// measureLargeRead runs the large-block read body against a fresh
// cluster with the fast path on or off and returns the benchmark result.
func measureLargeRead(t *testing.T, fast bool) testing.BenchmarkResult {
	t.Helper()
	c, err := StartLargeTCP(fast)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return testing.Benchmark(func(b *testing.B) { BenchLargeBlockRead(b, c) })
}

// TestLargeBlockReadAllocDrop pins the pooling acceptance bar: on the
// uncached ReadBlock TCP path the fast-path codec with pooled buffers
// allocates at most half the allocations — and at most half the bytes —
// per op of the gob baseline. Gob must allocate (and the GC must
// collect) a fresh 4MiB payload every op, while the fast path recycles
// one pooled buffer per op.
func TestLargeBlockReadAllocDrop(t *testing.T) {
	gob := measureLargeRead(t, false)
	fast := measureLargeRead(t, true)
	if fast.AllocsPerOp()*2 > gob.AllocsPerOp() {
		t.Errorf("fast path %d allocs/op is not ≤50%% of gob %d allocs/op",
			fast.AllocsPerOp(), gob.AllocsPerOp())
	}
	if fast.AllocedBytesPerOp()*2 > gob.AllocedBytesPerOp() {
		t.Errorf("fast path %d bytes/op is not ≤50%% of gob %d bytes/op",
			fast.AllocedBytesPerOp(), gob.AllocedBytesPerOp())
	}
	t.Logf("gob %d allocs/op %d B/op; fast %d allocs/op %d B/op",
		gob.AllocsPerOp(), gob.AllocedBytesPerOp(),
		fast.AllocsPerOp(), fast.AllocedBytesPerOp())
}

// cachedReadAllocCeiling is the committed allocs/op budget for one
// whole-file scan served entirely from the client block cache (the
// cached-read hot path). The measured figure is ~70 allocs/op on the
// in-memory transport (metadata RPCs plus the per-scan concat buffer;
// see BENCH_read.json's RepeatedScanCached records); the ceiling
// carries ~3x headroom so it only trips on a real regression — e.g.
// something reintroducing per-block allocations — not on runner noise.
const cachedReadAllocCeiling = 256

// TestCachedReadAllocCeiling fails if allocs/op on the cached-read hot
// path regresses above the committed ceiling.
func TestCachedReadAllocCeiling(t *testing.T) {
	c, err := Start(Inmem)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := testing.Benchmark(func(b *testing.B) { BenchRepeatedScan(b, c, RepeatedScanCacheBytes) })
	if r.AllocsPerOp() > cachedReadAllocCeiling {
		t.Errorf("cached scan %d allocs/op exceeds committed ceiling %d",
			r.AllocsPerOp(), cachedReadAllocCeiling)
	}
	t.Logf("cached scan: %d allocs/op, %d B/op (ceiling %d allocs/op)",
		r.AllocsPerOp(), r.AllocedBytesPerOp(), cachedReadAllocCeiling)
}
