package simclock

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Chan is a clock-aware mailbox: an unbounded FIFO channel whose blocking
// receive parks through the Clock, so the virtual clock can advance while
// receivers wait.
//
// Sends never block (the buffer is unbounded); this keeps producers out of
// the park/unpark protocol entirely, which makes simulation components
// much easier to reason about. Use it as a mailbox between components, not
// as a synchronization barrier.
//
// A timer may deliver into a Chan from inside the virtual clock, with the
// clock's lock held (see SendAfter), so no method holds c.mu while it
// takes the clock's lock: receivers are woken after c.mu is released.
type Chan[T any] struct {
	clock Clock

	mu      sync.Mutex
	buf     []T
	due     []T // sent with SendAfter and not yet receivable, from dueHead on
	dueHead int
	waiters []*waiter[T]
	closed  bool
	// wcache holds one idle waiter, with its timeout timer, for reuse by
	// the next receiver on either clock. A waiter is recycled only when no
	// waker can still reference it, so reuse never changes which waker
	// wins or when.
	wcache *waiter[T]
}

// NewChan returns an empty mailbox bound to clock.
func NewChan[T any](clock Clock) *Chan[T] {
	return &Chan[T]{clock: clock}
}

// waiter represents one parked receiver. Exactly one waker — a sender, a
// Close, or a timeout — wins the fired flag and delivers the outcome by
// waking p (on the real clock a 1-buffered channel, so the winning waker
// never blocks and the waiter can be reused after the receiver drains it).
type waiter[T any] struct {
	fired    atomic.Bool
	p        parker
	val      T
	ok       bool
	timedOut bool
	// timer is the waiter's reusable wall-clock timeout timer, created on
	// the first real-clock RecvTimeout and Reset on later ones. Profiling
	// the TCP data plane showed the per-call time.AfterFunc (timer plus
	// closure) was a top allocation site; reusing the timer with the
	// waiter removes it from the hot path.
	timer *time.Timer
	// vt is the same reusable timeout on the virtual clock: RecvTimeout
	// arms it in place, with the waiter as its target.
	vt timerEntry
}

// reuseWaiter takes the waiter cached in *cache, reset for another park,
// or makes a new one when the cache is empty.
func reuseWaiter[T any](cache **waiter[T]) *waiter[T] {
	w := *cache
	if w == nil {
		w = &waiter[T]{}
		w.vt.target = w
		return w
	}
	*cache = nil
	w.fired.Store(false)
	w.ok = false
	w.timedOut = false
	return w
}

// popFront removes and returns the first element of a FIFO slice,
// shifting the rest down so the backing array serves later appends.
func popFront[E any](s []E) (E, []E) {
	v := s[0]
	n := copy(s, s[1:])
	var zero E
	s[n] = zero // release the reference for the garbage collector
	return v, s[:n]
}

// fire implements timerTarget: the timeout path for RecvTimeout.
func (w *waiter[T]) fire(wake func(*parker)) {
	if !w.fired.CompareAndSwap(false, true) {
		return
	}
	w.timedOut = true
	wake(&w.p)
}

// Send appends v to the mailbox, waking a parked receiver if any. It
// reports false (and drops v) if the mailbox is closed.
func (c *Chan[T]) Send(v T) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	w := c.putLocked(v)
	c.mu.Unlock()
	if w != nil {
		c.clock.wake(&w.p)
	}
	return true
}

// SendAfter is Send delayed by d of clock time: v becomes receivable once
// d has elapsed, and no goroutine waits meanwhile. Values sent this way
// become receivable in the order they were sent, so a caller keeps their
// instants nondecreasing, as a FIFO link does. Plain Sends are not
// ordered against them. Close lets the values already sent this way
// arrive and closes the mailbox after the last of them.
func (c *Chan[T]) SendAfter(d time.Duration, v T) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	if c.dueHead > 0 && 2*c.dueHead >= len(c.due) && len(c.due) == cap(c.due) {
		// Reuse the delivered half rather than grow the array.
		n := copy(c.due, c.due[c.dueHead:])
		clear(c.due[n:])
		c.due, c.dueHead = c.due[:n], 0
	}
	c.due = append(c.due, v)
	c.mu.Unlock()
	if r, isReal := c.clock.(*Real); isReal {
		time.AfterFunc(r.scaleDown(d), func() { c.fire(r.wake) })
	} else {
		c.clock.(*Virtual).deliverAfter(d, c)
	}
	return true
}

// fire implements timerTarget for SendAfter: each firing makes the oldest
// delayed value receivable, and the last one after Close also closes the
// mailbox. It wakes the receivers it releases with wake.
func (c *Chan[T]) fire(wake func(*parker)) {
	var zero T
	c.mu.Lock()
	v := c.due[c.dueHead]
	c.due[c.dueHead] = zero // release the reference for the garbage collector
	c.dueHead++
	if c.dueHead == len(c.due) {
		c.due, c.dueHead = c.due[:0], 0 // keep the backing array
	}
	w := c.putLocked(v)
	var shut []*waiter[T]
	if c.closed && len(c.due) == 0 {
		shut = c.takeWaitersLocked()
	}
	c.mu.Unlock()
	if w != nil {
		wake(&w.p)
	}
	for _, w := range shut {
		wake(&w.p)
	}
}

// putLocked hands v to the first parked receiver no other waker has
// claimed and returns that receiver for the caller to wake once c.mu is
// released, or buffers v and returns nil. The caller must hold c.mu.
func (c *Chan[T]) putLocked(v T) *waiter[T] {
	for len(c.waiters) > 0 {
		var w *waiter[T]
		w, c.waiters = popFront(c.waiters)
		if w.fired.CompareAndSwap(false, true) {
			w.val = v
			w.ok = true
			return w
		}
	}
	c.buf = append(c.buf, v)
	return nil
}

// takeWaitersLocked unlinks every parked receiver and returns those no
// other waker has claimed, for the caller to wake with ok=false once c.mu
// is released. The caller must hold c.mu.
func (c *Chan[T]) takeWaitersLocked() []*waiter[T] {
	ws := c.waiters[:0]
	for _, w := range c.waiters {
		if w.fired.CompareAndSwap(false, true) {
			ws = append(ws, w)
		}
	}
	c.waiters = nil
	return ws
}

// Recv removes and returns the next value. It blocks (cooperatively with
// the clock) until a value arrives or the mailbox is closed; ok is false
// only when the mailbox is closed and drained.
func (c *Chan[T]) Recv() (v T, ok bool) {
	c.mu.Lock()
	if len(c.buf) > 0 {
		v = c.takeLocked()
		c.mu.Unlock()
		return v, true
	}
	if c.closed && len(c.due) == 0 {
		c.mu.Unlock()
		return v, false
	}
	w := c.acquireWaiterLocked()
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()

	c.clock.park(&w.p)
	v, ok = w.val, w.ok
	if ok {
		// The winning sender's last touch of w was the wake itself, so
		// the waiter is safe to reuse.
		c.recycleWaiter(w)
	}
	return v, ok
}

// acquireWaiterLocked returns a reset waiter prepared for the caller to
// park on, reusing the cached one if there is one. The caller must hold
// c.mu.
func (c *Chan[T]) acquireWaiterLocked() *waiter[T] {
	w := reuseWaiter(&c.wcache)
	c.clock.prepare(&w.p)
	return w
}

// recycleWaiter caches w for the next receiver. Callers must guarantee no
// waker still references w: its outcome was consumed, it is unlinked
// from c.waiters, and its timeout timer is stopped, cancelled or already
// fired.
func (c *Chan[T]) recycleWaiter(w *waiter[T]) {
	var zero T
	w.val = zero // release the reference for the garbage collector
	c.mu.Lock()
	if c.wcache == nil {
		c.wcache = w
	}
	c.mu.Unlock()
}

// removeWaiter unlinks a timed-out waiter so it cannot be popped (and
// skipped) by a later Send once recycled.
func (c *Chan[T]) removeWaiter(w *waiter[T]) {
	c.mu.Lock()
	if i := slices.Index(c.waiters, w); i >= 0 {
		c.waiters = slices.Delete(c.waiters, i, i+1)
	}
	c.mu.Unlock()
}

// RecvTimeout is Recv with a deadline d. timedOut reports that the
// deadline elapsed first; in that case ok is false.
func (c *Chan[T]) RecvTimeout(d time.Duration) (v T, ok, timedOut bool) {
	c.mu.Lock()
	if len(c.buf) > 0 {
		v = c.takeLocked()
		c.mu.Unlock()
		return v, true, false
	}
	if c.closed && len(c.due) == 0 {
		c.mu.Unlock()
		return v, false, false
	}
	w := c.acquireWaiterLocked()
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()

	if r, isReal := c.clock.(*Real); isReal {
		// Real clock: arm the waiter's reusable timer instead of paying a
		// fresh time.AfterFunc (timer + closure) per call.
		wall := r.scaleDown(d)
		if w.timer == nil {
			w.timer = time.AfterFunc(wall, func() { w.fire(r.wake) })
		} else {
			w.timer.Reset(wall)
		}
		r.park(&w.p)
		v, ok, timedOut = w.val, w.ok, w.timedOut
		if timedOut {
			// The timer callback completed (it delivered the wake) and the
			// waiter is still linked; unlink it so a later Send cannot pop
			// the recycled waiter.
			c.removeWaiter(w)
			c.recycleWaiter(w)
		} else if w.timer.Stop() {
			// Stop() reporting true guarantees the callback never ran and
			// never will, so nothing can touch the recycled waiter.
			c.recycleWaiter(w)
		}
		return v, ok, timedOut
	}

	// Clock is sealed, so any other clock is the virtual one. Once cancel
	// returns, the deadline has fired or never will, so after a timed-out
	// waiter is unlinked nothing can reach it.
	vc := c.clock.(*Virtual)
	vc.arm(&w.vt, d)
	vc.park(&w.p)
	vc.cancel(&w.vt)
	v, ok, timedOut = w.val, w.ok, w.timedOut
	if timedOut {
		c.removeWaiter(w)
	}
	c.recycleWaiter(w)
	return v, ok, timedOut
}

// Close closes the mailbox: parked receivers wake with ok=false, buffered
// values remain receivable, and future sends are dropped. Values already
// sent with SendAfter still arrive first; receivers see the close after
// the last of them. Closing twice is a no-op.
func (c *Chan[T]) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var shut []*waiter[T]
	if len(c.due) == 0 {
		shut = c.takeWaitersLocked()
	}
	c.mu.Unlock()
	for _, w := range shut {
		c.clock.wake(&w.p)
	}
}

// Len reports the number of buffered values.
func (c *Chan[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

func (c *Chan[T]) takeLocked() T {
	v := c.buf[0]
	var zero T
	c.buf[0] = zero // release the reference for the garbage collector
	c.buf = c.buf[1:]
	if len(c.buf) == 0 {
		c.buf = nil // reset backing array once drained
	}
	return v
}
