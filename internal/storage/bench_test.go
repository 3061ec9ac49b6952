package storage

import (
	"testing"
	"time"

	"repro/internal/simclock"
)

// BenchmarkDeviceConcurrentReads measures the simulation cost of the
// granule round-robin under contention (the experiment hot path).
func BenchmarkDeviceConcurrentReads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := simclock.NewVirtual(time.Unix(0, 0))
		dev := mustNewDevice(v, HDDSpec())
		wg := simclock.NewWaitGroup(v)
		for r := 0; r < 10; r++ {
			wg.Go(func() { _ = dev.Read(64 << 20) })
		}
		done := make(chan struct{})
		v.Go(func() { wg.Wait(); close(done) })
		<-done
	}
}

// TestDeviceReadAllocs pins a queued Device.Read at zero allocations in
// steady state: the request and its completion mailbox are reused, and
// the round-robin queue keeps its backing array. Run via `make
// bench-alloc`.
func TestDeviceReadAllocs(t *testing.T) {
	v := simclock.NewVirtual(time.Unix(0, 0))
	dev := mustNewDevice(v, HDDSpec())
	defer dev.Close()
	var allocs float64
	v.Run(func() {
		allocs = testing.AllocsPerRun(100, func() {
			if err := dev.Read(5 << 20); err != nil { // three granules
				t.Fatal(err)
			}
		})
	})
	t.Logf("%.1f allocations per queued Device.Read", allocs)
	if allocs > 0 {
		t.Errorf("Device.Read allocates %.1f times, want 0", allocs)
	}
}
