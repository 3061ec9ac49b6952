package simclock

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestVirtualStressMixedPrimitives drives every clock-aware primitive at
// once from many goroutines: producers/consumers over Chans (with and
// without timeouts), Cond waiters, WaitGroups, and nested spawns. It
// asserts the simulation terminates, time never regresses, and all
// messages are accounted for.
func TestVirtualStressMixedPrimitives(t *testing.T) {
	const (
		producers   = 12
		perProducer = 40
		consumers   = 5
	)
	for seed := int64(0); seed < 3; seed++ {
		v := NewVirtual(epoch)
		ch := NewChan[int](v)
		var mu sync.Mutex
		consumed := 0
		timeouts := 0
		var last time.Time

		// A condition variable that gates consumers until a coordinator
		// opens the floodgate.
		var gateMu sync.Mutex
		gateOpen := false
		gate := NewCond(v, &gateMu)

		wg := NewWaitGroup(v)
		for p := 0; p < producers; p++ {
			p := p
			wg.Go(func() {
				rng := rand.New(rand.NewSource(seed*1000 + int64(p)))
				for i := 0; i < perProducer; i++ {
					v.Sleep(time.Duration(rng.Intn(50)) * time.Millisecond)
					ch.Send(1)
					if i == perProducer/2 {
						// Nested spawn mid-stream.
						wg.Go(func() { v.Sleep(5 * time.Millisecond) })
					}
				}
			})
		}
		for cidx := 0; cidx < consumers; cidx++ {
			cidx := cidx
			wg.Go(func() {
				gateMu.Lock()
				for !gateOpen {
					gate.Wait()
				}
				gateMu.Unlock()
				for {
					_, ok, timedOut := ch.RecvTimeout(time.Duration(100+cidx*37) * time.Millisecond)
					mu.Lock()
					now := v.Now()
					if now.Before(last) {
						t.Errorf("time regressed: %v < %v", now, last)
					}
					last = now
					if ok {
						consumed++
					}
					if timedOut {
						timeouts++
					}
					done := consumed == producers*perProducer
					mu.Unlock()
					if done || timedOut {
						return
					}
				}
			})
		}
		// Gatekeeper: opens the gate after a delay.
		wg.Go(func() {
			v.Sleep(200 * time.Millisecond)
			gateMu.Lock()
			gateOpen = true
			gateMu.Unlock()
			gate.Broadcast()
		})
		// Drainer: whatever the timing-out consumers leave behind.
		wg.Go(func() {
			for {
				mu.Lock()
				done := consumed == producers*perProducer
				mu.Unlock()
				if done {
					return
				}
				if n, ok := ch.TryRecv(); ok {
					_ = n
					mu.Lock()
					consumed++
					mu.Unlock()
				} else {
					v.Sleep(10 * time.Millisecond)
				}
			}
		})

		done := make(chan struct{})
		v.Go(func() {
			wg.Wait()
			close(done)
		})
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("seed %d: stress sim stalled: %v", seed, v)
		}
		if consumed != producers*perProducer {
			t.Fatalf("seed %d: consumed %d of %d", seed, consumed, producers*perProducer)
		}
	}
}

// TestVirtualManyTimersPerformance sanity-checks that the timer heap
// handles tens of thousands of events quickly.
func TestVirtualManyTimersPerformance(t *testing.T) {
	v := NewVirtual(epoch)
	const n = 20000
	start := time.Now()
	wg := NewWaitGroup(v)
	for i := 0; i < n; i++ {
		i := i
		wg.Go(func() {
			v.Sleep(time.Duration(i%997) * time.Millisecond)
		})
	}
	done := make(chan struct{})
	v.Go(func() {
		wg.Wait()
		close(done)
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("stalled: %v", v)
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Errorf("%d timers took %v of wall time", n, wall)
	}
}
