package simclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a discrete-event simulation clock.
//
// Exactly one simulation goroutine runs at a time. Go and every wake
// append a goroutine to a FIFO ready queue, and a driver loop resumes the
// head of the queue whenever the running goroutine parks, sleeps or
// returns. When the queue is empty, the driver advances time to the
// earliest pending deadline and fires it. When no deadlines remain
// either, the simulation has quiesced and Wait returns.
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
	// current is the one running simulation goroutine. Only the driver
	// writes it, just before resuming that goroutine, so the goroutine
	// may read it without the lock.
	current   *coro
	ready     []ready // goroutines waiting to run, oldest at readyHead
	readyHead int
	driving   bool         // a driver loop is running
	parked    atomic.Int64 // diagnostic: goroutines parked in channel/cond waits
	timers    timerHeap
	seq       uint64
	idle      []*coro       // coroutines with no function, most recently idled last
	free      []*timerEntry // fired SendAfter entries, for deliverAfter to reuse
}

// ready is one entry of the ready queue: a parked goroutine to resume
// (co), or a function spawned by Go that has not started yet (fn). A
// function gets its coroutine only when it starts, so the ones that
// finished before it can serve it.
type ready struct {
	co *coro
	fn func()
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

// Go spawns fn as a simulation goroutine. It joins the back of the ready
// queue and runs once every goroutine ahead of it has parked; a caller
// inside the simulation keeps running until it parks itself. A caller
// outside the simulation does not hold time still, so the first spawned
// goroutine to park can let time advance while later ones are still
// being spawned; outside callers enter through Run instead.
//
// fn runs on an idle coroutine when there is one, so a stack grown by an
// earlier function serves the next (most are short RPC handlers).
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	v.readyLocked(ready{fn: fn})
	v.mu.Unlock()
}

// Sleep blocks the calling simulation goroutine for d of virtual time.
// Non-positive durations return immediately.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	co := v.current
	v.mu.Lock()
	v.push(&co.sleep, v.now.Add(d))
	v.mu.Unlock()
	co.yield(struct{}{})
}

// Run spawns fn and blocks until the whole simulation quiesces.
func (v *Virtual) Run(fn func()) {
	v.Go(fn)
	v.Wait()
}

// Wait blocks (in real time) until the simulation quiesces: no goroutine
// ready to run and no pending timers. Goroutines parked on channels that
// will never receive data (for example server loops awaiting requests) do
// not prevent quiescence.
func (v *Virtual) Wait() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for v.driving {
		v.quiesced.Wait()
	}
}

// Parked reports how many goroutines are currently parked in channel or
// condition waits. Useful to assert clean shutdown in tests.
func (v *Virtual) Parked() int {
	return int(v.parked.Load())
}

func (v *Virtual) prepare(p *parker) {
	p.co = v.current
	v.parked.Add(1)
}

func (v *Virtual) park(p *parker) { p.co.yield(struct{}{}) }

func (v *Virtual) wake(p *parker) {
	v.mu.Lock()
	v.wakeLocked(p)
	v.mu.Unlock()
}

// wakeLocked queues the goroutine parked on p. The caller must hold v.mu.
func (v *Virtual) wakeLocked(p *parker) {
	v.parked.Add(-1)
	v.readyLocked(ready{co: p.co})
}

// readyLocked appends r to the ready queue. A call from outside the
// simulation finds no driver running and starts one; inside, the driver
// is the caller's own resumer. The caller must hold v.mu.
func (v *Virtual) readyLocked(r ready) {
	v.ready = append(v.ready, r)
	if !v.driving {
		v.driving = true
		go v.drive()
	}
}

// drive is the driver loop. It resumes ready goroutines one at a time in
// FIFO order and fires the next timer whenever none is ready. With no
// timers left the simulation has quiesced: drive ends the idle
// coroutines, releases Wait and returns.
func (v *Virtual) drive() {
	wake := v.wakeLocked
	v.mu.Lock()
	for {
		if v.readyHead < len(v.ready) {
			r := v.ready[v.readyHead]
			v.ready[v.readyHead] = ready{}
			if v.readyHead++; v.readyHead == len(v.ready) {
				v.ready, v.readyHead = v.ready[:0], 0 // keep the backing array
			}
			co := r.co
			if co == nil {
				if n := len(v.idle); n > 0 {
					co = v.idle[n-1]
					v.idle[n-1] = nil
					v.idle = v.idle[:n-1]
				} else {
					co = newCoro()
				}
				co.fn = r.fn
			}
			v.current = co
			v.mu.Unlock()
			co.next()
			v.mu.Lock()
			if co.fn == nil { // it returned, rather than parked or slept
				v.idle = append(v.idle, co)
			}
			continue
		}
		if len(v.timers) == 0 {
			break
		}
		e := v.timers.remove(0)
		if e.when.After(v.now) {
			v.now = e.when
		}
		if e.co != nil {
			v.readyLocked(ready{co: e.co})
		} else {
			e.target.fire(wake)
			if e.pooled {
				e.target = nil
				v.free = append(v.free, e)
			}
		}
	}
	v.current = nil
	for i, co := range v.idle {
		co.stop()
		v.idle[i] = nil
	}
	v.idle = v.idle[:0]
	v.driving = false
	v.quiesced.Broadcast()
	v.mu.Unlock()
}

// arm queues e, whose target is set, to fire once d elapses: e.target.fire
// then runs with the clock mutex held, unless cancel removes e first. The
// caller owns e and may arm it again once it has fired or been cancelled.
func (v *Virtual) arm(e *timerEntry, d time.Duration) {
	v.mu.Lock()
	v.push(e, v.now.Add(d))
	v.mu.Unlock()
}

// deliverAfter arms a timer that fires t once d elapses and is never
// cancelled, as a SendAfter delivery is. Its entry comes from the free
// list and returns there after it fires.
func (v *Virtual) deliverAfter(d time.Duration, t timerTarget) {
	v.mu.Lock()
	var e *timerEntry
	if n := len(v.free); n > 0 {
		e = v.free[n-1]
		v.free[n-1] = nil
		v.free = v.free[:n-1]
	} else {
		e = &timerEntry{pooled: true}
	}
	e.target = t
	v.push(e, v.now.Add(d))
	v.mu.Unlock()
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

// timerEntry is one armed timer: a Sleep (co), or a RecvTimeout deadline
// or SendAfter delivery (target).
type timerEntry struct {
	key    int64  // when.UnixNano(), exact for years 1678–2262
	seq    uint64 // FIFO tie-break for simultaneous deadlines
	idx    int    // position in the heap; -1 once popped or removed
	when   time.Time
	co     *coro // the sleeping goroutine, made ready at the deadline
	target timerTarget
	pooled bool // a deliverAfter entry: back to the free list once fired
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
	return fmt.Sprintf("virtual(now=%s ready=%d parked=%d timers=%d)",
		v.now.Format(time.RFC3339Nano), len(v.ready)-v.readyHead, v.parked.Load(), len(v.timers))
}
