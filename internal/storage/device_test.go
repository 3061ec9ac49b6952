package storage

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
)

var epoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

const blockSize = 64 << 20 // the paper's 64 MB HDFS block

// readConcurrently issues n concurrent block reads and returns the mean
// per-read duration.
func readConcurrently(t *testing.T, spec Spec, streams int, bytes int64) time.Duration {
	t.Helper()
	v := simclock.NewVirtual(epoch)
	dev := mustNewDevice(v, spec)
	var mu sync.Mutex
	var total time.Duration
	v.Run(func() {
		for i := 0; i < streams; i++ {
			v.Go(func() {
				start := v.Now()
				if err := dev.Read(bytes); err != nil {
					t.Errorf("Read: %v", err)
				}
				mu.Lock()
				total += v.Now().Sub(start)
				mu.Unlock()
			})
		}
	})
	dev.Close()
	v.Wait()
	return total / time.Duration(streams)
}

func TestSingleStreamMatchesSequentialBandwidth(t *testing.T) {
	got := readConcurrently(t, HDDSpec(), 1, blockSize)
	// 64 MB at 120 MB/s is ~533 ms plus one seek.
	want := 560 * time.Millisecond
	if got < 500*time.Millisecond || got > 650*time.Millisecond {
		t.Errorf("single-stream HDD 64MB read = %v, want ~%v", got, want)
	}
}

func TestHDDCollapsesUnderConcurrency(t *testing.T) {
	single := readConcurrently(t, HDDSpec(), 1, blockSize)
	ten := readConcurrently(t, HDDSpec(), 10, blockSize)
	// Ten streams must take far more than 10x a single stream (seek
	// thrashing), i.e. per-stream throughput collapses superlinearly.
	if ten < 12*single {
		t.Errorf("10-stream read %v vs single %v: expected >12x degradation", ten, single)
	}
}

func TestRAMImmuneToConcurrency(t *testing.T) {
	single := readConcurrently(t, RAMSpec(), 1, blockSize)
	ten := readConcurrently(t, RAMSpec(), 10, blockSize)
	// Fair sharing: 10 streams take ~10x each, no worse.
	if ten > time.Duration(float64(single)*10.5) {
		t.Errorf("RAM degraded superlinearly: single=%v ten=%v", single, ten)
	}
}

// TestFig1Ratios checks the paper's headline device ratios under the
// SWIM-like concurrency of ~10 readers per device: RAM ~160x faster than
// HDD and ~7x faster than SSD for 64 MB block reads.
func TestFig1Ratios(t *testing.T) {
	const streams = 10
	hdd := readConcurrently(t, HDDSpec(), streams, blockSize)
	ssd := readConcurrently(t, SSDSpec(), streams, blockSize)
	ram := readConcurrently(t, RAMSpec(), streams, blockSize)

	hddRatio := float64(hdd) / float64(ram)
	ssdRatio := float64(ssd) / float64(ram)
	t.Logf("64MB@%d streams: hdd=%v ssd=%v ram=%v (hdd/ram=%.0fx ssd/ram=%.1fx)",
		streams, hdd, ssd, ram, hddRatio, ssdRatio)
	if hddRatio < 80 || hddRatio > 320 {
		t.Errorf("hdd/ram ratio %.0fx outside the paper's ~160x shape", hddRatio)
	}
	if ssdRatio < 3.5 || ssdRatio > 14 {
		t.Errorf("ssd/ram ratio %.1fx outside the paper's ~7x shape", ssdRatio)
	}
}

// TestSerializedBeatsConcurrent reproduces the §IV-F physics: reading N
// blocks one at a time completes sooner than reading them concurrently.
func TestSerializedBeatsConcurrent(t *testing.T) {
	const blocks = 8
	// Concurrent: 8 readers at once.
	v := simclock.NewVirtual(epoch)
	dev := mustNewDevice(v, HDDSpec())
	wg := simclock.NewWaitGroup(v)
	var concurrent time.Duration
	v.Run(func() {
		start := v.Now()
		for i := 0; i < blocks; i++ {
			wg.Go(func() { _ = dev.Read(blockSize) })
		}
		wg.Wait()
		concurrent = v.Now().Sub(start)
	})

	// Serialized: same blocks, one at a time (what the Ignem slave does).
	v2 := simclock.NewVirtual(epoch)
	dev2 := mustNewDevice(v2, HDDSpec())
	var serialized time.Duration
	v2.Run(func() {
		start := v2.Now()
		for i := 0; i < blocks; i++ {
			_ = dev2.Read(blockSize)
		}
		serialized = v2.Now().Sub(start)
	})

	if serialized >= concurrent {
		t.Errorf("serialized %v not faster than concurrent %v", serialized, concurrent)
	}
	t.Logf("serialized=%v concurrent=%v (%.2fx)", serialized, concurrent,
		float64(concurrent)/float64(serialized))
}

// TestDeviceRealClockConcurrentReads: on the real clock, requests and
// their completion mailboxes are reused across goroutines that submit at
// once; run it under -race. Every read completes and every byte is
// served.
func TestDeviceRealClockConcurrentReads(t *testing.T) {
	spec := Spec{Name: "fast", SeqReadMBps: 1e6, SeqWriteMBps: 1e6, Granule: 1 << 10}
	dev := mustNewDevice(simclock.NewReal(), spec)
	defer dev.Close()
	const readers, reads, size = 8, 50, 4 << 10
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < reads; j++ {
				if err := dev.Read(size); err != nil {
					t.Errorf("Read: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := dev.Stats().BytesServed; got != readers*reads*size {
		t.Errorf("served %d bytes, want %d", got, readers*reads*size)
	}
}

func TestWriteUsesWriteBandwidth(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	spec := Spec{Name: "asym", SeqReadMBps: 1000, SeqWriteMBps: 10, Seek: 0, Granule: 1 << 20}
	dev := mustNewDevice(v, spec)
	var read, write time.Duration
	v.Run(func() {
		s := v.Now()
		_ = dev.Read(10 << 20)
		read = v.Now().Sub(s)
		s = v.Now()
		_ = dev.Write(10 << 20)
		write = v.Now().Sub(s)
	})
	if write < 50*read {
		t.Errorf("write %v vs read %v: write bandwidth not honoured", write, read)
	}
}

func TestZeroByteRequestsReturnImmediately(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	dev := mustNewDevice(v, HDDSpec())
	v.Run(func() {
		if err := dev.Read(0); err != nil {
			t.Errorf("Read(0): %v", err)
		}
		if err := dev.Write(-5); err != nil {
			t.Errorf("Write(-5): %v", err)
		}
		if !v.Now().Equal(epoch) {
			t.Errorf("zero-byte request consumed time")
		}
	})
}

func TestCloseFailsPendingRequests(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	dev := mustNewDevice(v, HDDSpec())
	var errs []error
	var mu sync.Mutex
	v.Run(func() {
		for i := 0; i < 4; i++ {
			v.Go(func() {
				err := dev.Read(1 << 30)
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			})
		}
		v.Go(func() {
			v.Sleep(time.Second)
			dev.Close()
		})
	})
	if len(errs) != 4 {
		t.Fatalf("%d of 4 requests completed", len(errs))
	}
	for _, err := range errs {
		if err != ErrClosed {
			t.Errorf("pending read returned %v, want ErrClosed", err)
		}
	}
	// Requests after close fail immediately.
	v.Run(func() {
		if err := dev.Read(1); err != ErrClosed {
			t.Errorf("post-close read returned %v", err)
		}
	})
}

// mustNewDevice is NewDevice for known-good specs.
func mustNewDevice(clock simclock.Clock, spec Spec) *Device {
	d, err := NewDevice(clock, spec)
	if err != nil {
		panic(err)
	}
	return d
}

func TestStatsAndUtilization(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	dev := mustNewDevice(v, HDDSpec())
	v.Run(func() {
		_ = dev.Read(blockSize)
		st := dev.Stats()
		if st.BytesServed != blockSize {
			t.Errorf("BytesServed = %d, want %d", st.BytesServed, blockSize)
		}
		if st.Busy <= 0 {
			t.Error("Busy not accumulated")
		}
		// Utilization is the busy fraction of the time since the device
		// started.
		utilization := func() float64 {
			st := dev.Stats()
			return float64(st.Busy) / float64(v.Now().Sub(st.Since))
		}
		// The device was the only activity, so it was ~100% busy.
		if u := utilization(); u < 0.95 || u > 1 {
			t.Errorf("Utilization = %.2f, want ~1", u)
		}
		// Idle for a while: utilization halves.
		v.Sleep(v.Now().Sub(epoch))
		if u := utilization(); u < 0.4 || u > 0.6 {
			t.Errorf("Utilization after idle = %.2f, want ~0.5", u)
		}
	})
}

func TestSpecValidation(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	bad := []Spec{
		{Name: "a", SeqReadMBps: 0, SeqWriteMBps: 1, Granule: 1},
		{Name: "b", SeqReadMBps: 1, SeqWriteMBps: 0, Granule: 1},
		{Name: "c", SeqReadMBps: 1, SeqWriteMBps: 1, Granule: 0},
		{Name: "d", SeqReadMBps: 1, SeqWriteMBps: 1, Granule: 1, Seek: -time.Second},
	}
	for _, s := range bad {
		if _, err := NewDevice(v, s); err == nil {
			t.Errorf("spec %q accepted, want error", s.Name)
		}
	}
}

// Property: total bytes served equals total bytes requested, for any mix
// of read sizes.
func TestConservationOfBytes(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 24 {
			sizes = sizes[:24]
		}
		v := simclock.NewVirtual(epoch)
		dev := mustNewDevice(v, SSDSpec())
		var want int64
		v.Run(func() {
			for _, s := range sizes {
				n := int64(s) * 1024
				want += n
				v.Go(func() { _ = dev.Read(n) })
			}
		})
		return dev.Stats().BytesServed == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: with equal-sized concurrent requests, completion times are
// fair — max/min completion below a small bound (round-robin fairness).
func TestRoundRobinFairness(t *testing.T) {
	const streams = 6
	v := simclock.NewVirtual(epoch)
	dev := mustNewDevice(v, HDDSpec())
	var mu sync.Mutex
	var times []time.Duration
	v.Run(func() {
		for i := 0; i < streams; i++ {
			v.Go(func() {
				start := v.Now()
				_ = dev.Read(32 << 20)
				mu.Lock()
				times = append(times, v.Now().Sub(start))
				mu.Unlock()
			})
		}
	})
	min, max := times[0], times[0]
	for _, d := range times {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if float64(max)/float64(min) > 1.25 {
		t.Errorf("unfair service: min=%v max=%v", min, max)
	}
}
