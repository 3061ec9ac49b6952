// Package storage models storage devices (HDD, SSD, RAM) with the timing
// behaviour that drives the Ignem paper's results.
//
// A Device serves its outstanding requests in round-robin granules. Every
// time it switches from one request stream to another it pays the device's
// seek cost. This single mechanism yields the three facts the paper
// depends on:
//
//   - an HDD delivers near its sequential bandwidth to one streaming
//     reader but collapses under concurrent readers (seek thrashing);
//   - an SSD degrades only mildly under concurrency;
//   - RAM is unaffected by concurrency and orders of magnitude faster.
//
// It also produces the paper's §IV-F observation: reading blocks one at a
// time (as the Ignem slave does) extracts more bandwidth from the same
// disk than a job's concurrent task reads, which is why inserting delay
// before a job can make it finish sooner.
package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
)

// ErrClosed is returned for requests issued to (or in flight on) a device
// that has been closed, for example when a DataNode's server dies.
var ErrClosed = errors.New("storage: device closed")

// Tier ranks device classes in the migration ladder, coldest first.
// The canonical definition lives in package dfs (the wire carries tier
// identity on migrate commands); storage aliases it so device specs
// and the migration plane share one vocabulary.
type Tier = dfs.Tier

// Tier ranks, re-exported for spec literals.
const (
	TierHDD = dfs.TierHDD
	TierSSD = dfs.TierSSD
	TierRAM = dfs.TierRAM
)

// ReadVar models long-tail read-latency variability: most reads proceed
// at the spec's sequential bandwidth, but with probability TailProb a
// request draws a slowdown multiplier log-uniformly from
// [TailMinX, TailMaxX]. This reproduces the SSD read-variability case
// study's shape — internal housekeeping (GC, wear leveling, read
// disturb) makes a small fraction of flash reads an order of magnitude
// slower — so tier-choice policies have a real tail to react to. All
// draws come from a dedicated seeded stream, so a given seed yields a
// bit-identical cost sequence.
type ReadVar struct {
	// TailProb is the per-request probability of a slow read, in [0,1].
	TailProb float64
	// TailMinX and TailMaxX bound the slowdown multiplier (>1) drawn
	// log-uniformly for a tail read.
	TailMinX float64
	TailMaxX float64
	// Seed initializes the device's variability stream.
	Seed int64
}

func (v *ReadVar) validate(name string) error {
	if v == nil {
		return nil
	}
	if v.TailProb < 0 || v.TailProb > 1 {
		return fmt.Errorf("storage: %s: tail probability outside [0,1]", name)
	}
	if v.TailMinX < 1 || v.TailMaxX < v.TailMinX {
		return fmt.Errorf("storage: %s: tail multipliers must satisfy 1 <= min <= max", name)
	}
	return nil
}

// Spec holds the performance parameters of a device.
type Spec struct {
	// Name labels the device in metrics output ("hdd", "ssd", "ram").
	Name string
	// Tier ranks the device in the migration ladder. The zero value is
	// TierHDD, which matches every historical cold-media spec.
	Tier Tier
	// ReadVar, when non-nil, adds seeded long-tail read-cost
	// variability (see ReadVar). Nil — the default on every historical
	// spec — keeps reads exactly at sequential bandwidth, so seeded
	// figures are untouched.
	ReadVar *ReadVar
	// SeqReadMBps is the sequential streaming read throughput in MB/s.
	SeqReadMBps float64
	// SeqWriteMBps is the sequential streaming write throughput in MB/s.
	SeqWriteMBps float64
	// Seek is the cost of switching between request streams (or the
	// initial positioning cost of a new stream).
	Seek time.Duration
	// Granule is how many bytes the device serves a stream before it is
	// willing to switch to another stream.
	Granule int64
	// Parallel marks a device whose streams do not queue behind each
	// other: each request proceeds at the full per-stream bandwidth
	// regardless of concurrency. This models RAM, where concurrent
	// memcpys on a multi-core server do not serialize the way disk
	// head positioning does.
	Parallel bool
}

func (s Spec) validate() error {
	if s.SeqReadMBps <= 0 || s.SeqWriteMBps <= 0 {
		return fmt.Errorf("storage: %s: non-positive throughput", s.Name)
	}
	if s.Granule <= 0 {
		return fmt.Errorf("storage: %s: non-positive granule", s.Name)
	}
	if s.Seek < 0 {
		return fmt.Errorf("storage: %s: negative seek", s.Name)
	}
	return s.ReadVar.validate(s.Name)
}

// HDDSpec models a 7200rpm SATA drive like the 1 TB disks in the paper's
// testbed: ~120 MB/s streaming, ~8 ms to reposition the head. Under ~10
// concurrent readers the per-stream throughput collapses to ~8 MB/s,
// which reproduces the paper's Fig 1 HDD histogram.
func HDDSpec() Spec {
	return Spec{
		Name:         "hdd",
		SeqReadMBps:  120,
		SeqWriteMBps: 110,
		Seek:         8 * time.Millisecond,
		Granule:      2 << 20, // 2 MiB between head switches
	}
}

// SSDSpec models the flash tier of the paper's Fig 1b: ~2.2 GB/s
// aggregate with a tiny switch cost, so concurrency degrades it mildly
// and 64 MB block reads land ~7x slower than RAM.
func SSDSpec() Spec {
	return Spec{
		Name:         "ssd",
		Tier:         TierSSD,
		SeqReadMBps:  2200,
		SeqWriteMBps: 1800,
		Seek:         20 * time.Microsecond,
		Granule:      1 << 20,
	}
}

// SSDVarSpec is SSDSpec with the case study's long-tail read
// variability: ~5% of reads draw a 2–20x slowdown (log-uniform), which
// puts the p99/p50 read-cost ratio in the reported band of roughly one
// order of magnitude while the median read stays at full flash speed.
func SSDVarSpec(seed int64) Spec {
	s := SSDSpec()
	s.ReadVar = &ReadVar{TailProb: 0.05, TailMinX: 2, TailMaxX: 20, Seed: seed}
	return s
}

// RAMSpec models reads of mlocked buffer-cache pages through the
// file-system read path: ~1.5 GB/s per stream (memcpy plus protocol
// overhead), with no cross-stream queuing.
func RAMSpec() Spec {
	return Spec{
		Name:         "ram",
		Tier:         TierRAM,
		SeqReadMBps:  1500,
		SeqWriteMBps: 1500,
		Seek:         0,
		Granule:      8 << 20,
		Parallel:     true,
	}
}

type opKind int

const (
	opRead opKind = iota
	opWrite
)

type request struct {
	id        uint64
	kind      opKind
	remaining int64
	slow      float64 // read-cost multiplier drawn at submit (0 or 1 = none)
	done      *simclock.Chan[error]
}

// Device is a simulated storage device. All timing flows through the
// clock, so a Device works under both real and virtual time.
type Device struct {
	clock simclock.Clock
	spec  Spec

	mu      sync.Mutex
	cond    *simclock.Cond
	queue   []*request
	nextID  uint64
	lastID  uint64
	closed  bool
	busy    time.Duration // cumulative time spent serving granules
	served  int64         // cumulative bytes served
	started time.Time
	rvRng   *rand.Rand // read-variability stream, nil without ReadVar
	slowAcc int64      // cumulative tail reads drawn
}

// NewDevice creates a device and starts its serving loop on the clock.
func NewDevice(clock simclock.Clock, spec Spec) (*Device, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	d := &Device{clock: clock, spec: spec, started: clock.Now()}
	d.cond = simclock.NewCond(clock, &d.mu)
	if spec.ReadVar != nil {
		d.rvRng = rand.New(rand.NewSource(spec.ReadVar.Seed))
	}
	clock.Go(d.run)
	return d, nil
}

// MustNewDevice is NewDevice for known-good specs.
func MustNewDevice(clock simclock.Clock, spec Spec) *Device {
	d, err := NewDevice(clock, spec)
	if err != nil {
		panic(err)
	}
	return d
}

// drawSlowLocked draws a read-cost multiplier from the variability
// stream: 1 for a fast read, log-uniform in [TailMinX, TailMaxX] for a
// tail read. Caller holds d.mu, so concurrent submitters consume the
// stream in queue order.
func (d *Device) drawSlowLocked() float64 {
	rv := d.spec.ReadVar
	if d.rvRng.Float64() >= rv.TailProb {
		return 1
	}
	d.slowAcc++
	lo, hi := math.Log(rv.TailMinX), math.Log(rv.TailMaxX)
	return math.Exp(lo + d.rvRng.Float64()*(hi-lo))
}

// Read blocks for as long as reading n bytes takes given the device's
// current load. It must be called from a simulation goroutine.
func (d *Device) Read(n int64) error { return d.submit(opRead, n) }

// Write blocks for as long as writing n bytes takes.
func (d *Device) Write(n int64) error { return d.submit(opWrite, n) }

func (d *Device) submit(kind opKind, n int64) error {
	if n <= 0 {
		return nil
	}
	if d.spec.Parallel {
		return d.submitParallel(kind, n)
	}
	req := &request{kind: kind, remaining: n, done: simclock.NewChan[error](d.clock)}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	d.nextID++
	req.id = d.nextID
	if kind == opRead && d.rvRng != nil {
		req.slow = d.drawSlowLocked()
	}
	d.queue = append(d.queue, req)
	d.cond.Signal()
	d.mu.Unlock()
	err, _ := req.done.Recv()
	return err
}

// submitParallel serves a request on a non-queuing device: the full
// transfer proceeds at per-stream bandwidth regardless of other streams.
func (d *Device) submitParallel(kind opKind, n int64) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	mbps := d.spec.SeqReadMBps
	slow := 1.0
	if kind == opWrite {
		mbps = d.spec.SeqWriteMBps
	} else if d.rvRng != nil {
		slow = d.drawSlowLocked()
	}
	cost := d.spec.Seek + time.Duration(float64(n)/(mbps*1e6)*slow*float64(time.Second))
	d.mu.Unlock()

	d.clock.Sleep(cost)

	d.mu.Lock()
	d.busy += cost
	d.served += n
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return nil
}

// run is the device's serving loop: one granule per iteration, round-robin
// across outstanding requests, with a seek charged on stream switches.
func (d *Device) run() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		for !d.closed && len(d.queue) == 0 {
			d.cond.Wait()
		}
		if d.closed {
			for _, r := range d.queue {
				r.done.Send(ErrClosed)
			}
			d.queue = nil
			return
		}

		req := d.queue[0]
		d.queue = d.queue[1:]
		slice := req.remaining
		if slice > d.spec.Granule {
			slice = d.spec.Granule
		}
		cost := d.serviceTime(req, slice)
		d.lastID = req.id
		d.mu.Unlock()

		d.clock.Sleep(cost)

		d.mu.Lock()
		d.busy += cost
		d.served += slice
		req.remaining -= slice
		if req.remaining <= 0 {
			req.done.Send(nil)
		} else {
			d.queue = append(d.queue, req) // back of the round-robin ring
		}
	}
}

func (d *Device) serviceTime(req *request, slice int64) time.Duration {
	mbps := d.spec.SeqReadMBps
	if req.kind == opWrite {
		mbps = d.spec.SeqWriteMBps
	}
	xfer := float64(slice) / (mbps * 1e6)
	if req.slow > 1 {
		xfer *= req.slow
	}
	cost := time.Duration(xfer * float64(time.Second))
	if req.id != d.lastID {
		cost += d.spec.Seek
	}
	return cost
}

// Stats is a snapshot of cumulative device activity.
type Stats struct {
	// Busy is the cumulative time the device spent serving granules.
	Busy time.Duration
	// BytesServed is the cumulative payload served.
	BytesServed int64
	// QueueLen is the number of requests currently outstanding.
	QueueLen int
	// SlowReads counts reads that drew a tail slowdown (ReadVar only).
	SlowReads int64
	// Since is when the device started serving.
	Since time.Time
}

// Stats returns a snapshot of device activity, for utilization metrics.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{Busy: d.busy, BytesServed: d.served, QueueLen: len(d.queue), SlowReads: d.slowAcc, Since: d.started}
}

// Utilization reports the fraction of time the device has been busy since
// it started, in [0, 1].
func (d *Device) Utilization() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	elapsed := d.clock.Now().Sub(d.started)
	if elapsed <= 0 {
		return 0
	}
	u := float64(d.busy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// Close fails all pending and future requests with ErrClosed and stops the
// serving loop.
func (d *Device) Close() {
	d.mu.Lock()
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
}
