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
// The virtual clock only works if simulation goroutines cooperate:
//
//   - Spawn goroutines with Clock.Go, never with the go statement.
//   - Block only in clock-aware primitives: Clock.Sleep, Chan.Recv,
//     Chan.RecvTimeout, Cond.Wait, WaitGroup.Wait.
//   - Never hold a mutex across any of those waits. Plain mutexes with
//     short critical sections are fine.
//
// Violating these rules stalls virtual time (the clock believes a
// goroutine is still runnable and refuses to advance).
//
// Inside the package, one lock-order rule holds: a Chan's mutex is never
// held while taking the clock's lock. The virtual clock fires timers with
// its lock held, and a firing RecvTimeout deadline or SendAfter delivery
// takes the Chan's mutex, so Chan methods release theirs before they
// call into the clock and wake receivers only after releasing it. That
// is safe because the caller still holds its runnable token: time cannot
// advance between the release and the wake.
//
// Virtual.Go reuses goroutines: a function runs on an idle worker when
// one exists, and idle workers exit when the simulation quiesces.
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

	// parkPrepare marks the calling goroutine as blocked. It must be
	// called immediately before blocking on a wake channel that some
	// other goroutine (or a timer) will close.
	parkPrepare()

	// unparkOne marks one goroutine as runnable again, on behalf of a
	// parked goroutine that the caller is about to wake. It must be
	// called before (or atomically with) the wake itself.
	unparkOne()
}

// timerTarget is what a RecvTimeout deadline or a SendAfter delivery
// fires. fire must be safe to call from any goroutine and must not block
// or call into the clock: on the virtual clock it runs with the clock's
// lock held. It returns how many parked goroutines it woke, which the
// virtual clock counts as runnable again.
type timerTarget interface {
	fire() int
}
