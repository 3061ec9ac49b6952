package simclock

import (
	"runtime"
	"time"
)

// Real is a wall-clock Clock, optionally scaled.
//
// With scale s, one real second corresponds to s simulated seconds: Sleep
// and timeouts complete s times faster than their nominal durations, and
// Now advances s times faster than the wall. Scale 1 is plain wall time.
//
// Scaling lets the storage-device timing models run workloads sized like
// the paper's testbed in a fraction of the wall time while preserving the
// relative timing behaviour.
type Real struct {
	scale    float64
	base     time.Time // reported time at construction
	wallBase time.Time // wall time at construction
}

var _ Clock = (*Real)(nil)

// NewReal returns an unscaled wall clock.
func NewReal() *Real { return NewScaledReal(1) }

// NewScaledReal returns a wall clock that runs scale times faster than
// real time. Scale must be positive.
func NewScaledReal(scale float64) *Real {
	if scale <= 0 {
		panic("simclock: scale must be positive")
	}
	now := time.Now()
	return &Real{scale: scale, base: now, wallBase: now}
}

// Now returns the scaled current time.
func (r *Real) Now() time.Time {
	elapsed := time.Since(r.wallBase)
	return r.base.Add(r.scaleUp(elapsed))
}

// timerSlack is the granularity of the Go runtime's timer in a mostly
// idle process: its netpoller waits in whole milliseconds, so a bare
// time.Sleep of a few microseconds can return a millisecond or more late.
const timerSlack = time.Millisecond

// Sleep pauses for d of scaled time (d/scale of wall time). It fixes the
// wall deadline on entry, leaves the first d/scale - timerSlack of the
// wait to the runtime's timer, and yields the processor until the
// deadline for the rest, so a device wait of a few microseconds costs
// its nominal time rather than the timer's granularity. The loop yields
// on every turn, so it cannot starve the goroutines the sleeper waits
// on, and it runs for at most the last timerSlack of each wait.
func (r *Real) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	wall := r.scaleDown(d)
	deadline := time.Now().Add(wall)
	if wall > timerSlack {
		time.Sleep(wall - timerSlack)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// Go spawns fn as an ordinary goroutine.
func (r *Real) Go(fn func()) { go fn() }

func (r *Real) prepare(p *parker) {
	if p.ch == nil {
		p.ch = make(chan struct{}, 1)
	}
}

func (r *Real) park(p *parker) { <-p.ch }

func (r *Real) wake(p *parker) { p.ch <- struct{}{} }

func (r *Real) scaleDown(d time.Duration) time.Duration {
	if r.scale == 1 {
		return d
	}
	return time.Duration(float64(d) / r.scale)
}

func (r *Real) scaleUp(d time.Duration) time.Duration {
	if r.scale == 1 {
		return d
	}
	return time.Duration(float64(d) * r.scale)
}
