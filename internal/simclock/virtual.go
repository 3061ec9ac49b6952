package simclock

import (
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
// The timer queue holds only armed, uncancelled timers, and they fire in
// (deadline, seq) order, seq being the order in which they were armed. A
// cancelled timeout leaves the queue at cancel.
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
	idle     []chan func() // workers waiting for a Go, most recently idled last
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
//
// fn runs on an idle worker goroutine when there is one, so a stack grown
// by an earlier function serves the next (most are short RPC handlers).
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	v.runnable++
	if n := len(v.idle); n > 0 {
		w := v.idle[n-1]
		v.idle[n-1] = nil
		v.idle = v.idle[:n-1]
		v.mu.Unlock()
		w <- fn
		return
	}
	v.mu.Unlock()
	go v.work(fn)
}

// work is a worker goroutine: it runs fn, releases fn's runnable token,
// and waits idle for the next function Go hands it. It exits when the
// simulation quiesces, and when a function calls runtime.Goexit, whose
// token the deferred release still returns.
func (v *Virtual) work(fn func()) {
	defer func() {
		if fn != nil { // fn did not return
			v.mu.Lock()
			v.runnable--
			v.advanceLocked()
			v.mu.Unlock()
		}
	}()
	next := make(chan func(), 1)
	for fn != nil {
		fn()
		fn = nil
		v.mu.Lock()
		v.runnable--
		v.advanceLocked()
		if v.runnable == 0 { // quiesced: nothing is left to hand out work
			v.mu.Unlock()
			return
		}
		v.idle = append(v.idle, next)
		v.mu.Unlock()
		fn = <-next // nil when the simulation quiesces first
	}
}

// Sleep blocks the calling simulation goroutine for d of virtual time.
// Non-positive durations return immediately.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	e := &timerEntry{wake: make(chan struct{}, 1)}
	v.mu.Lock()
	v.push(e, v.now.Add(d))
	v.runnable--
	v.advanceLocked()
	v.mu.Unlock()
	<-e.wake
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
	for !(v.runnable == 0 && len(v.timers) == 0) {
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

// afterFunc arms a timer: once d elapses, t.fire runs with the clock
// mutex held, unless cancel removes the returned entry first.
func (v *Virtual) afterFunc(d time.Duration, t timerTarget) *timerEntry {
	e := &timerEntry{target: t}
	v.mu.Lock()
	v.push(e, v.now.Add(d))
	v.mu.Unlock()
	return e
}

// cancel takes an armed timeout out of the queue. It is a no-op once the
// entry has fired.
func (v *Virtual) cancel(e *timerEntry) {
	v.mu.Lock()
	if e.idx >= 0 {
		v.timers.remove(e.idx)
	}
	v.mu.Unlock()
}

// push queues e for when; the caller must hold v.mu.
func (v *Virtual) push(e *timerEntry, when time.Time) {
	v.seq++
	e.when, e.key, e.seq = when, when.UnixNano(), v.seq
	v.timers.push(e)
}

// advanceLocked advances virtual time while no goroutine is runnable and
// deadlines remain. The caller must hold v.mu.
func (v *Virtual) advanceLocked() {
	for v.runnable == 0 && len(v.timers) > 0 {
		e := v.timers.remove(0)
		if e.when.After(v.now) {
			v.now = e.when
		}
		if e.wake != nil {
			v.runnable++
			e.wake <- struct{}{}
		} else if n := e.target.fire(); n > 0 {
			// The target woke n parked goroutines; they are runnable now.
			v.runnable += n
			v.parked -= n
		}
	}
	if v.runnable == 0 && len(v.timers) == 0 {
		for i, w := range v.idle {
			w <- nil
			v.idle[i] = nil
		}
		v.idle = v.idle[:0]
		v.quiesced.Broadcast()
	}
}

// timerEntry is one armed timer: a Sleep (wake), or a RecvTimeout
// deadline or SendAfter delivery (target).
type timerEntry struct {
	key    int64  // when.UnixNano(), exact for years 1678–2262
	seq    uint64 // FIFO tie-break for simultaneous deadlines
	idx    int    // position in the heap; -1 once popped or removed
	when   time.Time
	wake   chan struct{} // 1-buffered; receives one value at the deadline
	target timerTarget
}

// timerHeap is a binary min-heap ordered by (key, seq) that keeps each
// entry's idx current, so a cancelled entry can be removed in place.
type timerHeap []*timerEntry

func (h timerHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	return a.key < b.key || a.key == b.key && a.seq < b.seq
}

func (h timerHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h timerHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

// down sifts h[i] toward the leaves within h[:n] and reports whether it
// moved.
func (h timerHeap) down(i, n int) bool {
	i0 := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h.swap(i, c)
		i = c
	}
	return i > i0
}

func (h *timerHeap) push(e *timerEntry) {
	e.idx = len(*h)
	*h = append(*h, e)
	h.up(e.idx)
}

// remove takes out and returns the entry at i, marking it unqueued.
func (h *timerHeap) remove(i int) *timerEntry {
	old := *h
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
		if !old.down(i, n) {
			old.up(i)
		}
	}
	e := old[n]
	old[n] = nil
	*h = old[:n]
	e.idx = -1
	return e
}

// String renders a small diagnostic snapshot, handy when a simulation
// stalls or deadlocks in a test.
func (v *Virtual) String() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return fmt.Sprintf("virtual(now=%s runnable=%d parked=%d timers=%d)",
		v.now.Format(time.RFC3339Nano), v.runnable, v.parked, len(v.timers))
}
