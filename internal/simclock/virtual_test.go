package simclock

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestVirtualSleepAdvancesInstantly(t *testing.T) {
	v := NewVirtual(epoch)
	wallStart := time.Now()
	var woke time.Time
	v.Run(func() {
		v.Sleep(10 * time.Hour)
		woke = v.Now()
	})
	if got, want := woke, epoch.Add(10*time.Hour); !got.Equal(want) {
		t.Errorf("woke at %v, want %v", got, want)
	}
	if wall := time.Since(wallStart); wall > 2*time.Second {
		t.Errorf("virtual sleep took %v of wall time", wall)
	}
}

func TestVirtualZeroAndNegativeSleep(t *testing.T) {
	v := NewVirtual(epoch)
	v.Run(func() {
		v.Sleep(0)
		v.Sleep(-time.Second)
		if !v.Now().Equal(epoch) {
			t.Errorf("time moved on zero sleep: %v", v.Now())
		}
	})
}

func TestVirtualConcurrentSleepersWakeInOrder(t *testing.T) {
	v := NewVirtual(epoch)
	var mu sync.Mutex
	var order []int
	v.Run(func() {
		for i := 10; i >= 1; i-- {
			i := i
			v.Go(func() {
				v.Sleep(time.Duration(i) * time.Second)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
	})
	if len(order) != 10 {
		t.Fatalf("got %d wake-ups, want 10", len(order))
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("wake order not sorted by deadline: %v", order)
	}
}

func TestVirtualNowNeverRegresses(t *testing.T) {
	v := NewVirtual(epoch)
	var mu sync.Mutex
	var stamps []time.Time
	rng := rand.New(rand.NewSource(1))
	durations := make([]time.Duration, 50)
	for i := range durations {
		durations[i] = time.Duration(rng.Intn(1000)) * time.Millisecond
	}
	v.Run(func() {
		for _, d := range durations {
			d := d
			v.Go(func() {
				v.Sleep(d)
				mu.Lock()
				stamps = append(stamps, v.Now())
				mu.Unlock()
				v.Sleep(d / 2)
				mu.Lock()
				stamps = append(stamps, v.Now())
				mu.Unlock()
			})
		}
	})
	for i := 1; i < len(stamps); i++ {
		if stamps[i].Before(stamps[i-1]) {
			t.Fatalf("time regressed: %v after %v", stamps[i], stamps[i-1])
		}
	}
}

func TestVirtualNestedSpawn(t *testing.T) {
	v := NewVirtual(epoch)
	var hits int
	var mu sync.Mutex
	v.Run(func() {
		for i := 0; i < 5; i++ {
			v.Go(func() {
				v.Sleep(time.Second)
				v.Go(func() {
					v.Sleep(time.Second)
					mu.Lock()
					hits++
					mu.Unlock()
				})
			})
		}
	})
	if hits != 5 {
		t.Errorf("got %d nested completions, want 5", hits)
	}
}

func TestVirtualWaitReturnsWhenOnlyParkedRemain(t *testing.T) {
	v := NewVirtual(epoch)
	ch := NewChan[int](v)
	v.Go(func() {
		ch.Recv() // parks forever: nobody sends
	})
	done := make(chan struct{})
	go func() {
		v.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Wait did not return with one goroutine parked: %v", v)
	}
	if got := v.Parked(); got != 1 {
		t.Errorf("Parked() = %d, want 1", got)
	}
	ch.Close()
}

func TestVirtualStringDiagnostic(t *testing.T) {
	v := NewVirtual(epoch)
	if s := v.String(); s == "" {
		t.Error("empty diagnostic string")
	}
}

// Property: for any set of sleep durations, every goroutine observes
// exactly start+duration, and the final virtual time is the maximum.
func TestVirtualSleepExactness(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		v := NewVirtual(epoch)
		var mu sync.Mutex
		okAll := true
		var maxD time.Duration
		// Spawn inside Run: the spawning goroutine runs until it
		// returns, so no sleeper's timer fires before every sleeper exists.
		v.Run(func() {
			for _, r := range raw {
				d := time.Duration(r) * time.Millisecond
				if d > maxD {
					maxD = d
				}
				v.Go(func() {
					v.Sleep(d)
					mu.Lock()
					if !v.Now().Equal(epoch.Add(d)) && v.Now().Before(epoch.Add(d)) {
						okAll = false
					}
					mu.Unlock()
				})
			}
		})
		return okAll && v.Now().Equal(epoch.Add(maxD))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// runWithin runs fn under v.Run and fails the test if the simulation has
// not quiesced after a minute of wall time. The failure does not print v:
// a deadlocked clock would never release its lock to String.
func runWithin(t *testing.T, v *Virtual, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		v.Run(fn)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("simulation did not quiesce within a minute of wall time")
	}
}

// A function that ends its goroutine with runtime.Goexit (t.FailNow does)
// still hands control back to the driver, so time advances and Wait
// returns.
func TestVirtualGoexitReleasesToken(t *testing.T) {
	v := NewVirtual(epoch)
	var after time.Time
	runWithin(t, v, func() {
		v.Go(func() {
			v.Sleep(time.Second)
			runtime.Goexit()
		})
		v.Go(func() { runtime.Goexit() })
		v.Sleep(2 * time.Second)
		after = v.Now()
	})
	if want := epoch.Add(2 * time.Second); !after.Equal(want) {
		t.Errorf("woke at %v, want %v", after, want)
	}
}

// Functions handed to reused coroutines nest like fresh goroutines: every
// round's spawns run, and their own spawns run, on whatever coroutine is
// idle. Reuse keeps the pool at one round's width: without it every round
// would add its coroutines to the idle list.
func TestVirtualGoReusesIdleWorkers(t *testing.T) {
	const rounds, width = 20, 8
	v := NewVirtual(epoch)
	var mu sync.Mutex
	hits := 0
	idleAfterRound := make([]int, rounds)
	runWithin(t, v, func() {
		for r := 0; r < rounds; r++ {
			for i := 0; i < width; i++ {
				v.Go(func() {
					v.Sleep(time.Millisecond)
					v.Go(func() {
						mu.Lock()
						hits++
						mu.Unlock()
					})
				})
			}
			v.Sleep(time.Second)
			v.mu.Lock()
			idleAfterRound[r] = len(v.idle)
			v.mu.Unlock()
		}
	})
	if hits != rounds*width {
		t.Errorf("got %d nested completions, want %d", hits, rounds*width)
	}
	if idleAfterRound[0] < 1 {
		t.Errorf("no coroutine was idle after the first round")
	}
	if last := idleAfterRound[rounds-1]; last > 2*width {
		t.Errorf("%d idle coroutines after %d rounds of %d spawns and %d nested spawns; reuse keeps ≤ %d",
			last, rounds, width, width, 2*width)
	}
}

// Idle coroutines end when the simulation quiesces, so no goroutine
// outlives a quiesced clock.
func TestVirtualWorkersExitOnQuiescence(t *testing.T) {
	baseline := runtime.NumGoroutine()
	v := NewVirtual(epoch)
	runWithin(t, v, func() {
		for i := 0; i < 50; i++ {
			v.Go(func() {
				v.Sleep(time.Duration(i) * time.Millisecond)
				v.Go(func() { v.Sleep(time.Millisecond) })
			})
		}
	})
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > baseline; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n > baseline {
		t.Errorf("%d goroutines after quiescence, baseline %d", n, baseline)
	}
}

// Exactly one simulation goroutine runs at a time, and goroutines made
// ready at the same instant run in the order they were made ready. Each
// phase below readies n goroutines at one instant through a different
// primitive — Go, Cond.Broadcast, Send, Sleep deadlines, SendAfter
// deliveries, Cond.Signal and RecvTimeout deadlines — and every goroutine
// stays busy across a few host scheduling points each time it runs, so a
// clock that let two run at once would show them overlapping.
func TestVirtualRunsOneGoroutineAtATime(t *testing.T) {
	const n = 6
	v := NewVirtual(epoch)
	var inflight, peak atomic.Int32
	busy := func() {
		k := inflight.Add(1)
		for p := peak.Load(); k > p && !peak.CompareAndSwap(p, k); p = peak.Load() {
		}
		for i := 0; i < 3; i++ {
			runtime.Gosched()
		}
		inflight.Add(-1)
	}
	var mu sync.Mutex
	var order [][]int // per phase, the goroutines in the order they ran
	ran := func(phase, i int) {
		busy()
		mu.Lock()
		for len(order) <= phase {
			order = append(order, nil)
		}
		order[phase] = append(order[phase], i)
		mu.Unlock()
	}

	var condMu sync.Mutex
	cond := NewCond(v, &condMu)
	chans := make([]*Chan[int], n)
	for i := range chans {
		chans[i] = NewChan[int](v)
	}
	waitCond := func() {
		condMu.Lock()
		cond.Wait()
		condMu.Unlock()
	}
	runWithin(t, v, func() {
		for i := 0; i < n; i++ {
			v.Go(func() {
				ran(0, i) // Go
				waitCond()
				ran(1, i) // Broadcast
				chans[i].Recv()
				ran(2, i) // Send, in reverse
				v.Sleep(time.Second)
				ran(3, i) // Sleep deadlines, armed in reverse
				chans[i].Recv()
				ran(4, i) // SendAfter deliveries
				waitCond()
				ran(5, i) // Signal, in wait order
				chans[i].RecvTimeout(time.Second)
				ran(6, i) // RecvTimeout deadlines, armed in forward order
			})
			busy()
		}
		v.Sleep(time.Millisecond)
		busy()
		cond.Broadcast()
		busy()
		v.Sleep(time.Millisecond)
		for i := n - 1; i >= 0; i-- {
			chans[i].Send(i)
			busy()
		}
		v.Sleep(2 * time.Second)
		for i := 0; i < n; i++ {
			chans[i].SendAfter(time.Millisecond, i)
			busy()
		}
		v.Sleep(time.Second)
		for i := 0; i < n; i++ {
			cond.Signal()
			busy()
		}
	})

	if p := peak.Load(); p != 1 {
		t.Errorf("%d simulation goroutines ran at once, want 1", p)
	}
	fwd, rev := make([]int, n), make([]int, n)
	for i := range fwd {
		fwd[i], rev[n-1-i] = i, i
	}
	want := [][]int{fwd, fwd, rev, rev, fwd, fwd, fwd}
	if len(order) != len(want) {
		t.Fatalf("%d phases ran, want %d: %v", len(order), len(want), order)
	}
	for phase := range want {
		if !slices.Equal(order[phase], want[phase]) {
			t.Errorf("phase %d ran %v, want %v", phase, order[phase], want[phase])
		}
	}
}
