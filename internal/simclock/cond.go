package simclock

import "sync"

// Cond is a clock-aware condition variable. Like sync.Cond, Wait must be
// called with L held; unlike sync.Cond it parks cooperatively so the
// virtual clock can advance while goroutines wait.
type Cond struct {
	// L is held while waiting on the condition.
	L sync.Locker

	clock   Clock
	mu      sync.Mutex
	waiters []*waiter[struct{}]
	wcache  *waiter[struct{}] // one idle waiter for the next Wait
}

// NewCond returns a condition variable bound to clock whose Wait releases
// and reacquires l.
func NewCond(clock Clock, l sync.Locker) *Cond {
	return &Cond{L: l, clock: clock}
}

// Wait atomically releases c.L, parks until Signal or Broadcast, then
// reacquires c.L. As with sync.Cond, callers must re-check their
// condition in a loop.
func (c *Cond) Wait() {
	c.mu.Lock()
	w := reuseWaiter(&c.wcache)
	c.clock.prepare(&w.p)
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()

	c.L.Unlock()
	c.clock.park(&w.p)
	// Signal and Broadcast unlink a waiter before waking it, so nothing
	// references w any more.
	c.mu.Lock()
	if c.wcache == nil {
		c.wcache = w
	}
	c.mu.Unlock()
	c.L.Lock()
}

// Signal wakes one waiter, if any.
func (c *Cond) Signal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.waiters) > 0 {
		var w *waiter[struct{}]
		w, c.waiters = popFront(c.waiters)
		if w.fired.CompareAndSwap(false, true) {
			w.ok = true
			c.clock.wake(&w.p)
			return
		}
	}
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.waiters {
		if w.fired.CompareAndSwap(false, true) {
			w.ok = true
			c.clock.wake(&w.p)
		}
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// WaitGroup is a clock-aware sync.WaitGroup analogue.
type WaitGroup struct {
	clock Clock
	mu    sync.Mutex
	cond  *Cond
	count int
}

// NewWaitGroup returns a WaitGroup bound to clock.
func NewWaitGroup(clock Clock) *WaitGroup {
	wg := &WaitGroup{clock: clock}
	wg.cond = NewCond(clock, &wg.mu)
	return wg
}

// Add adds delta to the counter. It panics if the counter goes negative.
func (wg *WaitGroup) Add(delta int) {
	wg.mu.Lock()
	defer wg.mu.Unlock()
	wg.count += delta
	if wg.count < 0 {
		panic("simclock: negative WaitGroup counter")
	}
	if wg.count == 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Go runs fn as a simulation goroutine tracked by the group.
func (wg *WaitGroup) Go(fn func()) {
	wg.Add(1)
	wg.clock.Go(func() {
		defer wg.Done()
		fn()
	})
}

// Wait parks until the counter reaches zero.
func (wg *WaitGroup) Wait() {
	wg.mu.Lock()
	defer wg.mu.Unlock()
	for wg.count != 0 {
		wg.cond.Wait()
	}
}
