package simclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Virtual is a discrete-event simulation clock.
//
// It tracks how many simulation goroutines are runnable. When that count
// reaches zero, it advances time to the earliest pending deadline and
// wakes the goroutines parked on it. When the count is zero and no
// deadlines remain, the simulation has quiesced and Wait returns.
//
// The zero value is not usable; construct with NewVirtual.
type Virtual struct {
	mu       sync.Mutex
	quiesced *sync.Cond // real condition: signalled whenever the sim quiesces
	now      time.Time
	runnable int
	parked   int // diagnostic: goroutines parked in channel/cond waits
	timers   timerHeap
	seq      uint64
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock whose time starts at start.
func NewVirtual(start time.Time) *Virtual {
	v := &Virtual{now: start}
	v.quiesced = sync.NewCond(&v.mu)
	return v
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Go spawns fn as a simulation goroutine. Call it from inside the
// simulation: the caller's runnable token keeps virtual time from
// advancing until it parks. A caller outside the simulation holds no
// token, so the first spawned goroutine to park can let time advance
// while later ones are still being spawned; outside callers enter
// through Run instead.
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	v.runnable++
	v.mu.Unlock()
	go func() {
		defer func() {
			v.mu.Lock()
			v.runnable--
			v.advanceLocked()
			v.mu.Unlock()
		}()
		fn()
	}()
}

// Sleep blocks the calling simulation goroutine for d of virtual time.
// Non-positive durations return immediately.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	wake := make(chan struct{})
	v.mu.Lock()
	v.push(v.now.Add(d), func() {
		v.runnable++
		close(wake)
	})
	v.runnable--
	v.advanceLocked()
	v.mu.Unlock()
	<-wake
}

// Run spawns fn and blocks until the whole simulation quiesces.
func (v *Virtual) Run(fn func()) {
	v.Go(fn)
	v.Wait()
}

// Wait blocks (in real time) until the simulation quiesces: no runnable
// goroutines and no pending timers. Goroutines parked on channels that
// will never receive data (for example server loops awaiting requests) do
// not prevent quiescence.
func (v *Virtual) Wait() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for !(v.runnable == 0 && v.timers.Len() == 0) {
		v.quiesced.Wait()
	}
}

// Parked reports how many goroutines are currently parked in channel or
// condition waits. Useful to assert clean shutdown in tests.
func (v *Virtual) Parked() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.parked
}

func (v *Virtual) parkPrepare() {
	v.mu.Lock()
	v.runnable--
	v.parked++
	v.advanceLocked()
	v.mu.Unlock()
}

func (v *Virtual) unparkOne() {
	v.mu.Lock()
	v.runnable++
	v.parked--
	v.mu.Unlock()
}

func (v *Virtual) afterFunc(d time.Duration, t timeoutTarget) (cancel func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	e := v.push(v.now.Add(d), nil)
	e.fire = func() {
		if t.timeoutFire() {
			// The target was parked; firing the timeout makes it runnable.
			v.runnable++
			v.parked--
		}
	}
	return func() {
		v.mu.Lock()
		e.dead = true
		v.mu.Unlock()
	}
}

// push inserts a timer entry; the caller must hold v.mu.
func (v *Virtual) push(when time.Time, fire func()) *timerEntry {
	v.seq++
	e := &timerEntry{when: when, seq: v.seq, fire: fire}
	heap.Push(&v.timers, e)
	return e
}

// advanceLocked advances virtual time while no goroutine is runnable and
// deadlines remain. The caller must hold v.mu.
func (v *Virtual) advanceLocked() {
	for v.runnable == 0 && v.timers.Len() > 0 {
		e := heap.Pop(&v.timers).(*timerEntry)
		if e.dead {
			continue
		}
		if e.when.After(v.now) {
			v.now = e.when
		}
		e.fire()
	}
	if v.runnable == 0 && v.timers.Len() == 0 {
		v.quiesced.Broadcast()
	}
}

type timerEntry struct {
	when time.Time
	seq  uint64 // FIFO tie-break for simultaneous deadlines
	fire func() // runs with the clock mutex held; must not block
	dead bool
	idx  int
}

type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *timerHeap) Push(x any) {
	e := x.(*timerEntry)
	e.idx = len(*h)
	*h = append(*h, e)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// String renders a small diagnostic snapshot, handy when a simulation
// stalls or deadlocks in a test.
func (v *Virtual) String() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return fmt.Sprintf("virtual(now=%s runnable=%d parked=%d timers=%d)",
		v.now.Format(time.RFC3339Nano), v.runnable, v.parked, v.timers.Len())
}
