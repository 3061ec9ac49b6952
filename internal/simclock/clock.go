// Package simclock provides pluggable time for the Ignem stack.
//
// Every component in this repository tells time through a Clock. Two
// implementations exist:
//
//   - Real: wall-clock time, optionally scaled, for live deployments and
//     TCP-based integration tests.
//   - Virtual: a deterministic discrete-event clock for experiments. Time
//     advances instantly to the next deadline whenever every simulation
//     goroutine is parked in a clock-aware wait.
//
// On the virtual clock exactly one simulation goroutine runs at a time.
// Each is a coroutine that runs until it parks, sleeps or returns, and
// then hands control back to one driver loop, which resumes the goroutines
// that are ready in the order they became ready (FIFO). Only when none is
// ready does it fire the next timer. A run is therefore a pure function of
// its inputs, and every switch is a happens-before edge.
//
// The virtual clock only works if simulation goroutines cooperate:
//
//   - Spawn goroutines with Clock.Go, never with the go statement.
//   - Block only in clock-aware primitives: Clock.Sleep, Chan.Recv,
//     Chan.RecvTimeout, Cond.Wait, WaitGroup.Wait.
//   - Never hold a mutex across any of those waits. Plain mutexes with
//     short critical sections are fine.
//
// Breaking these rules deadlocks the simulation: a goroutine that blocks
// anywhere else blocks the driver, and with it every other goroutine.
//
// Inside the package, one lock-order rule holds: a Chan's mutex is never
// held while taking the clock's lock. The virtual clock fires timers with
// its lock held, and a firing RecvTimeout deadline or SendAfter delivery
// takes the Chan's mutex, so Chan methods release theirs before they
// wake receivers. That is safe because timers fire only while no
// simulation goroutine runs: time cannot advance between the release and
// the wake.
//
// Virtual.Go reuses coroutines: a function runs on an idle one when one
// exists, and idle coroutines end when the simulation quiesces.
package simclock

import "time"

// Clock abstracts time for simulation components. It is a sealed
// interface: only Real and Virtual implement it.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time

	// Sleep pauses the calling goroutine for d. On the virtual clock the
	// caller must be a simulation goroutine (spawned via Go).
	Sleep(d time.Duration)

	// Go spawns fn as a simulation goroutine tracked by the clock.
	Go(fn func())

	// prepare readies p for the calling goroutine to park on. It must be
	// called before p is published to any waker, and it never takes the
	// clock's lock.
	prepare(p *parker)

	// park blocks the calling goroutine until wake(p).
	park(p *parker)

	// wake makes the goroutine parked (or about to park) on p runnable.
	// Each prepare is matched by exactly one wake.
	wake(p *parker)
}

// parker is where one goroutine parks: the real clock blocks on ch, and
// the virtual clock switches away from the coroutine co.
type parker struct {
	ch chan struct{}
	co *coro
}

// timerTarget is what a RecvTimeout deadline or a SendAfter delivery
// fires. fire must be safe to call from any goroutine and must not block
// or call into the clock: on the virtual clock it runs with the clock's
// lock held. It wakes the goroutines it releases with wake.
type timerTarget interface {
	fire(wake func(*parker))
}
