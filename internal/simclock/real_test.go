package simclock

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// realWaits are wall-clock waits the scaled real clock is asked for: a
// 64 KiB RAM write, a 1 MiB and a 4 MiB block read at the benchmark's
// scale of 32, then waits longer than the runtime timer's granularity.
var realWaits = []time.Duration{
	1370 * time.Nanosecond,
	22 * time.Microsecond,
	87 * time.Microsecond,
	1300 * time.Microsecond,
	32 * time.Millisecond,
}

// TestRealClockScaled checks lower bounds only: a Sleep never returns
// before its wall deadline, and the scaled clock advances at least the
// nominal duration. How late a sleep returns depends on the host, so no
// verdict here depends on it.
func TestRealClockScaled(t *testing.T) {
	for _, scale := range []float64{1, 32} {
		r := NewScaledReal(scale)
		for _, wall := range realWaits {
			d := time.Duration(float64(wall) * scale)
			start := r.Now()
			t0 := time.Now()
			r.Sleep(d)
			if got := time.Since(t0); got < wall {
				t.Errorf("scale %v: Sleep(%v) returned after %v of wall time, want >= %v", scale, d, got, wall)
			}
			if got := r.Now().Sub(start); got < d {
				t.Errorf("scale %v: Sleep(%v) advanced the clock by only %v", scale, d, got)
			}
		}
		// A non-positive duration returns at once: one that slept for
		// its magnitude would never return.
		r.Sleep(0)
		r.Sleep(-time.Hour)
		r.Sleep(math.MinInt64)
	}
}

// TestRealSleepAllocs pins each short scaled Sleep, one that never
// reaches the runtime timer, at zero allocations.
func TestRealSleepAllocs(t *testing.T) {
	r := NewScaledReal(32)
	for _, wall := range realWaits[:3] {
		d := 32 * wall
		allocs := testing.AllocsPerRun(200, func() { r.Sleep(d) })
		t.Logf("%.1f allocations per Sleep(%v) at scale 32", allocs, d)
		if allocs > 0 {
			t.Errorf("Sleep(%v) at scale 32 allocates %.1f times, want 0", d, allocs)
		}
	}
}

// BenchmarkRealSleep measures how far past its wall deadline a scaled
// Sleep returns, as the mean overshoot in microseconds.
func BenchmarkRealSleep(b *testing.B) {
	r := NewScaledReal(32)
	for _, wall := range realWaits[:4] {
		b.Run(fmt.Sprintf("wall=%v", wall), func(b *testing.B) {
			d := 32 * wall
			var over time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				r.Sleep(d)
				over += time.Since(t0) - wall
			}
			b.ReportMetric(float64(over)/float64(b.N)/1e3, "overshoot_us/op")
		})
	}
}

func TestRealClockBasics(t *testing.T) {
	r := NewReal()
	t0 := r.Now()
	r.Sleep(10 * time.Millisecond)
	if r.Now().Before(t0.Add(5 * time.Millisecond)) {
		t.Error("real clock did not advance with sleep")
	}
	done := make(chan struct{})
	r.Go(func() { close(done) })
	<-done
}

func TestNewScaledRealPanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-positive scale")
		}
	}()
	NewScaledReal(0)
}
