package storage

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/simclock"
)

// readCosts issues n sequential 1 MiB reads against a fresh device and
// returns each read's elapsed virtual time. Sequential submission from
// one simulation goroutine makes the variability stream's draw order
// fixed, so the cost sequence is a pure function of the spec and seed.
func readCosts(t *testing.T, spec Spec, n int) []time.Duration {
	t.Helper()
	v := simclock.NewVirtual(epoch)
	dev := mustNewDevice(v, spec)
	out := make([]time.Duration, 0, n)
	v.Go(func() {
		for i := 0; i < n; i++ {
			start := v.Now()
			if err := dev.Read(1 << 20); err != nil {
				t.Errorf("Read: %v", err)
				return
			}
			out = append(out, v.Now().Sub(start))
		}
	})
	v.Wait()
	dev.Close()
	v.Wait()
	return out
}

// Same seed, same request sequence → bit-identical cost draws, run
// after run (and under -race, where this test also executes).
func TestReadVarSeededDeterminism(t *testing.T) {
	a := readCosts(t, SSDVarSpec(42), 512)
	b := readCosts(t, SSDVarSpec(42), 512)
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across runs: %v vs %v", i, a[i], b[i])
		}
	}
	c := readCosts(t, SSDVarSpec(43), 512)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical cost sequence")
	}
}

// Without ReadVar the spec change is inert: every read costs exactly
// the sequential-bandwidth time, bit-identical to the historical model.
func TestReadVarNilLeavesCostsUnchanged(t *testing.T) {
	costs := readCosts(t, SSDSpec(), 64)
	want := costs[0]
	for i, c := range costs {
		if c != want {
			t.Fatalf("read %d cost %v, want uniform %v", i, c, want)
		}
	}
}

// Distribution shape: the median read stays at full flash speed while
// the p99/p50 ratio lands in the case study's reported band of roughly
// an order of magnitude (we accept [4, 40]: 5% tail x 2–20x log-uniform
// puts the expected ratio near 12x).
func TestReadVarTailShape(t *testing.T) {
	costs := readCosts(t, SSDVarSpec(7), 4096)
	sorted := append([]time.Duration(nil), costs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p50 := sorted[len(sorted)/2]
	p99 := sorted[len(sorted)*99/100]
	ratio := float64(p99) / float64(p50)
	if ratio < 4 || ratio > 40 {
		t.Fatalf("p99/p50 read-cost ratio %.1f outside the case-study band [4, 40]", ratio)
	}
	// The fast path must dominate: the median read is the unslowed cost.
	base := readCosts(t, SSDSpec(), 1)[0]
	if p50 != base {
		t.Fatalf("median varied read %v, want unslowed %v", p50, base)
	}
	// Tail frequency tracks TailProb (5% of 4096 ≈ 205, allow 2x band).
	slow := 0
	for _, c := range costs {
		if c > base*3/2 {
			slow++
		}
	}
	if slow < 100 || slow > 400 {
		t.Fatalf("tail reads = %d of 4096, want ~205", slow)
	}
}

// The multiplier distribution itself is log-uniform in [min,max]: no
// draw may escape the configured bounds.
func TestReadVarDrawBounds(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	dev := mustNewDevice(v, SSDVarSpec(99))
	defer dev.Close()
	rv := dev.spec.ReadVar
	for i := 0; i < 10000; i++ {
		dev.mu.Lock()
		x := dev.drawSlowLocked()
		dev.mu.Unlock()
		if x != 1 && (x < rv.TailMinX || x > rv.TailMaxX) {
			t.Fatalf("draw %d: multiplier %v outside [%v, %v]", i, x, rv.TailMinX, rv.TailMaxX)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("draw %d: non-finite multiplier %v", i, x)
		}
	}
}
