package simclock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestChanSendThenRecv(t *testing.T) {
	v := NewVirtual(epoch)
	ch := NewChan[int](v)
	v.Run(func() {
		ch.Send(1)
		ch.Send(2)
		ch.Send(3)
		for want := 1; want <= 3; want++ {
			got, ok := ch.Recv()
			if !ok || got != want {
				t.Errorf("Recv = (%d, %v), want (%d, true)", got, ok, want)
			}
		}
	})
}

func TestChanRecvBlocksUntilSend(t *testing.T) {
	v := NewVirtual(epoch)
	ch := NewChan[string](v)
	var got string
	var at time.Time
	v.Run(func() {
		v.Go(func() {
			got, _ = ch.Recv()
			at = v.Now()
		})
		v.Go(func() {
			v.Sleep(5 * time.Second)
			ch.Send("hello")
		})
	})
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
	if want := epoch.Add(5 * time.Second); !at.Equal(want) {
		t.Errorf("received at %v, want %v", at, want)
	}
}

func TestChanCloseWakesReceivers(t *testing.T) {
	v := NewVirtual(epoch)
	ch := NewChan[int](v)
	var oks []bool
	var mu sync.Mutex
	v.Run(func() {
		for i := 0; i < 3; i++ {
			v.Go(func() {
				_, ok := ch.Recv()
				mu.Lock()
				oks = append(oks, ok)
				mu.Unlock()
			})
		}
		v.Go(func() {
			v.Sleep(time.Second)
			ch.Close()
		})
	})
	if len(oks) != 3 {
		t.Fatalf("only %d receivers woke", len(oks))
	}
	for _, ok := range oks {
		if ok {
			t.Error("receiver got ok=true from closed empty chan")
		}
	}
	if ch.Send(9) {
		t.Error("Send succeeded on closed chan")
	}
}

func TestChanCloseDrainsBuffer(t *testing.T) {
	v := NewVirtual(epoch)
	ch := NewChan[int](v)
	v.Run(func() {
		ch.Send(7)
		ch.Close()
		if got, ok := ch.Recv(); !ok || got != 7 {
			t.Errorf("buffered value lost on close: (%d, %v)", got, ok)
		}
		if _, ok := ch.Recv(); ok {
			t.Error("Recv ok=true on drained closed chan")
		}
	})
}

func TestChanRecvTimeoutFires(t *testing.T) {
	v := NewVirtual(epoch)
	ch := NewChan[int](v)
	v.Run(func() {
		_, ok, timedOut := ch.RecvTimeout(3 * time.Second)
		if ok || !timedOut {
			t.Errorf("RecvTimeout = ok=%v timedOut=%v, want timeout", ok, timedOut)
		}
		if want := epoch.Add(3 * time.Second); !v.Now().Equal(want) {
			t.Errorf("timeout at %v, want %v", v.Now(), want)
		}
	})
}

func TestChanRecvTimeoutValueWins(t *testing.T) {
	v := NewVirtual(epoch)
	ch := NewChan[int](v)
	var got int
	var timedOut bool
	v.Run(func() {
		v.Go(func() {
			got, _, timedOut = ch.RecvTimeout(time.Minute)
		})
		v.Go(func() {
			v.Sleep(time.Second)
			ch.Send(42)
		})
	})
	if timedOut || got != 42 {
		t.Errorf("got=%d timedOut=%v, want 42/false", got, timedOut)
	}
	// A later send must not be stolen by the cancelled timer.
	v.Run(func() {
		ch.Send(43)
		if n := ch.Len(); n != 1 {
			t.Errorf("Len = %d, want 1", n)
		}
		if got, ok := ch.Recv(); !ok || got != 43 {
			t.Errorf("Recv = (%d, %v)", got, ok)
		}
	})
}

// TryRecv removes and returns the next value without blocking.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.buf) == 0 {
		return v, false
	}
	return c.takeLocked(), true
}

func TestChanTryRecv(t *testing.T) {
	v := NewVirtual(epoch)
	ch := NewChan[int](v)
	if _, ok := ch.TryRecv(); ok {
		t.Error("TryRecv ok on empty chan")
	}
	ch.Send(5)
	if got, ok := ch.TryRecv(); !ok || got != 5 {
		t.Errorf("TryRecv = (%d, %v)", got, ok)
	}
}

func TestChanManyProducersManyConsumers(t *testing.T) {
	v := NewVirtual(epoch)
	ch := NewChan[int](v)
	const producers, perProducer, consumers = 8, 25, 4
	var mu sync.Mutex
	sum := 0
	var recvd int
	v.Run(func() {
		for p := 0; p < producers; p++ {
			p := p
			v.Go(func() {
				for i := 0; i < perProducer; i++ {
					v.Sleep(time.Duration(p+1) * time.Millisecond)
					ch.Send(1)
				}
			})
		}
		for cidx := 0; cidx < consumers; cidx++ {
			v.Go(func() {
				for {
					n, ok := ch.Recv()
					if !ok {
						return
					}
					mu.Lock()
					sum += n
					recvd++
					done := recvd == producers*perProducer
					mu.Unlock()
					if done {
						ch.Close()
						return
					}
				}
			})
		}
	})
	if sum != producers*perProducer {
		t.Errorf("sum = %d, want %d", sum, producers*perProducer)
	}
}

func TestChanWithRealClock(t *testing.T) {
	r := NewReal()
	ch := NewChan[int](r)
	done := make(chan struct{})
	go func() {
		got, ok := ch.Recv()
		if !ok || got != 99 {
			t.Errorf("Recv = (%d, %v)", got, ok)
		}
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	ch.Send(99)
	<-done

	if _, ok, timedOut := ch.RecvTimeout(10 * time.Millisecond); ok || !timedOut {
		t.Errorf("real-clock RecvTimeout ok=%v timedOut=%v", ok, timedOut)
	}
}

// Property: FIFO ordering is preserved for a single producer/consumer pair
// regardless of interleaved sleeps.
func TestChanFIFOProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) > 40 {
			raw = raw[:40]
		}
		v := NewVirtual(epoch)
		ch := NewChan[int](v)
		var got []int
		v.Run(func() {
			v.Go(func() {
				for i, r := range raw {
					v.Sleep(time.Duration(r) * time.Millisecond)
					ch.Send(i)
				}
				ch.Close()
			})
			v.Go(func() {
				for {
					x, ok := ch.Recv()
					if !ok {
						return
					}
					got = append(got, x)
				}
			})
		})
		if len(got) != len(raw) {
			return false
		}
		for i, x := range got {
			if x != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	v := NewVirtual(epoch)
	var mu sync.Mutex
	cond := NewCond(v, &mu)
	ready := 0
	woken := 0
	v.Run(func() {
		for i := 0; i < 3; i++ {
			v.Go(func() {
				mu.Lock()
				ready++
				for ready < 100 { // condition never satisfied; rely on broadcast below
					cond.Wait()
					woken++
					if woken >= 3 {
						break
					}
				}
				mu.Unlock()
			})
		}
		v.Go(func() {
			v.Sleep(time.Second)
			mu.Lock()
			ready = 100
			mu.Unlock()
			cond.Broadcast()
		})
	})
	mu.Lock()
	defer mu.Unlock()
	if woken == 0 {
		t.Error("broadcast woke nobody")
	}
}

// TestCondRealClockWaiterReuse runs real-clock goroutines through Wait,
// Signal and Broadcast on one Cond at once, so its cached waiter is
// taken and returned concurrently; run it under -race. Every token the
// producer adds must be consumed, with no wakeup lost.
func TestCondRealClockWaiterReuse(t *testing.T) {
	var mu sync.Mutex
	cond := NewCond(NewReal(), &mu)
	const workers, rounds = 8, 200
	tokens := 0
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				mu.Lock()
				for tokens == 0 {
					cond.Wait()
				}
				tokens--
				mu.Unlock()
			}
		}()
	}
	for j := 0; j < workers*rounds; j++ {
		mu.Lock()
		tokens++
		if j%2 == 0 {
			cond.Signal()
		} else {
			cond.Broadcast()
		}
		mu.Unlock()
	}
	wg.Wait()
}

func TestWaitGroup(t *testing.T) {
	v := NewVirtual(epoch)
	wg := NewWaitGroup(v)
	var mu sync.Mutex
	n := 0
	v.Run(func() {
		for i := 1; i <= 10; i++ {
			i := i
			wg.Go(func() {
				v.Sleep(time.Duration(i) * time.Second)
				mu.Lock()
				n++
				mu.Unlock()
			})
		}
		wg.Wait()
		if n != 10 {
			t.Errorf("WaitGroup released early: n=%d", n)
		}
		if want := epoch.Add(10 * time.Second); !v.Now().Equal(want) {
			t.Errorf("Wait returned at %v, want %v", v.Now(), want)
		}
	})
}

func TestWaitGroupPanicsOnNegative(t *testing.T) {
	v := NewVirtual(epoch)
	wg := NewWaitGroup(v)
	defer func() {
		if recover() == nil {
			t.Error("no panic on negative counter")
		}
	}()
	wg.Done()
}

func TestChanCloseDuringRecvTimeout(t *testing.T) {
	v := NewVirtual(epoch)
	ch := NewChan[int](v)
	var ok, timedOut bool
	v.Run(func() {
		v.Go(func() {
			_, ok, timedOut = ch.RecvTimeout(time.Minute)
		})
		v.Go(func() {
			v.Sleep(time.Second)
			ch.Close()
		})
	})
	if ok || timedOut {
		t.Errorf("close during RecvTimeout: ok=%v timedOut=%v, want both false", ok, timedOut)
	}
}

func TestWaitGroupGoTracksWork(t *testing.T) {
	v := NewVirtual(epoch)
	wg := NewWaitGroup(v)
	n := 0
	var mu sync.Mutex
	v.Run(func() {
		for i := 0; i < 4; i++ {
			wg.Go(func() {
				v.Sleep(time.Second)
				mu.Lock()
				n++
				mu.Unlock()
			})
		}
		wg.Wait()
	})
	if n != 4 {
		t.Errorf("n = %d", n)
	}
}

func TestSignalWithNoWaitersIsNoOp(t *testing.T) {
	v := NewVirtual(epoch)
	var mu sync.Mutex
	cond := NewCond(v, &mu)
	cond.Signal()
	cond.Broadcast() // must not panic or wake anything
}
