//go:build go1.23

// Simulation goroutines are coroutines on iter.Pull, which arrived in the
// Go 1.23 standard library; go vet rejects it in a go1.22 file. The
// module stays at go 1.22, because raising it would force the bench
// module, which requires this one, to raise its own go line too. This
// constraint raises only this file's language version.

package simclock

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// coro is one simulation goroutine on the virtual clock. The driver
// resumes it with next; it hands control back with yield when it parks,
// sleeps or finishes a function. Between functions it waits in the
// clock's idle list for the next one, keeping its grown stack.
type coro struct {
	fn    func() // the function it runs; nil once that returns
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	sleep timerEntry // Sleep's timer: a goroutine sleeps once at a time
}

func newCoro() *coro {
	co := &coro{}
	co.sleep.co = co
	co.next, co.stop = iter.Pull(co.loop)
	return co
}

// loop runs the functions the driver hands co until the driver stops co
// while it is idle, at quiescence.
func (co *coro) loop(yield func(struct{}) bool) {
	co.yield = yield
	defer co.exit()
	for {
		co.fn()
		co.fn = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// exit handles a function that did not return. iter.Pull would re-raise a
// runtime.Goexit (t.FailNow calls it) in the driver, so exit hands control
// back to the driver instead and is never resumed. A panic goes on to the
// driver, carrying this goroutine's stack, which the re-raise would lose.
func (co *coro) exit() {
	if co.fn == nil {
		return
	}
	if r := recover(); r != nil {
		panic(fmt.Sprintf("%v\n\nsimulation goroutine stack:\n%s", r, debug.Stack()))
	}
	co.yield(struct{}{})
}
