package simclock

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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

// TestChanTimerDeliveryStress has timers deliver into Chans (SendAfter)
// while other goroutines Send, RecvTimeout and Close the same Chans. On
// the virtual clock a delivery runs inside the clock, under its lock,
// and a goroutine outside the simulation sends and closes besides, so a
// Chan method that held its mutex while calling into the clock would
// deadlock here; on the real clock deliveries race the other callers
// outright. Every value a send accepted must be received exactly once.
// Run it under -race.
func TestChanTimerDeliveryStress(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		v := NewVirtual(epoch)
		runWithin(t, v, func() { stressTimerDelivery(t, v) })
	})
	t.Run("real", func(t *testing.T) {
		stressTimerDelivery(t, NewScaledReal(1000))
	})
}

func stressTimerDelivery(t *testing.T, clock Clock) {
	const (
		chans   = 4
		linkers = 2  // SendAfter senders per Chan
		sends   = 60 // per sender
	)
	var accepted, received, closed atomic.Int64
	var outsideDone atomic.Bool
	chs := make([]*Chan[int], chans)
	for i := range chs {
		chs[i] = NewChan[int](clock)
	}
	count := func(ok bool) {
		if ok {
			accepted.Add(1)
		}
	}

	// A goroutine outside the simulation sends until every Chan is
	// closed, and closes one itself.
	outside := make(chan struct{})
	go func() {
		defer close(outside)
		defer outsideDone.Store(true)
		for i := 0; closed.Load() < chans; i++ {
			count(chs[i%chans].Send(i))
			if i == sends {
				chs[0].Close()
			}
			runtime.Gosched()
		}
	}()

	wg := NewWaitGroup(clock)
	for c, ch := range chs {
		for s := 0; s < linkers; s++ {
			wg.Go(func() {
				rng := rand.New(rand.NewSource(int64(c*10 + s)))
				for i := 0; i < sends; i++ {
					clock.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
					count(ch.SendAfter(time.Duration(rng.Intn(2000))*time.Microsecond, i))
				}
			})
		}
		wg.Go(func() { // plain sender
			for i := 0; i < sends; i++ {
				clock.Sleep(time.Duration(1+i%3) * time.Millisecond)
				count(ch.Send(i))
			}
		})
		for r := 0; r < 2; r++ {
			wg.Go(func() { // receivers: until closed and drained
				for {
					_, ok, timedOut := ch.RecvTimeout(time.Duration(1+r) * time.Millisecond)
					if ok {
						received.Add(1)
					} else if !timedOut {
						return
					}
				}
			})
		}
		wg.Go(func() { // closer, while deliveries are still in flight
			clock.Sleep(time.Duration(60+20*c) * time.Millisecond)
			ch.Close()
			closed.Add(1)
		})
	}
	// Keep the virtual clock from quiescing while the outside goroutine
	// still runs.
	wg.Go(func() {
		for !outsideDone.Load() {
			clock.Sleep(time.Millisecond)
		}
	})
	wg.Wait()
	<-outside
	if a, r := accepted.Load(), received.Load(); a != r || a == 0 {
		t.Errorf("%d values accepted, %d received", a, r)
	}
}
