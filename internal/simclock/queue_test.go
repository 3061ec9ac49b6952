package simclock

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCancelledTimeoutsLeaveTheQueue answers 5,000 RecvTimeout(30 s) calls
// within a microsecond each. Every cancelled timeout must leave the queue
// at cancel, not linger until its deadline.
func TestCancelledTimeoutsLeaveTheQueue(t *testing.T) {
	v := NewVirtual(epoch)
	v.Run(func() {
		ch := NewChan[int](v)
		for i := 0; i < 5000; i++ {
			v.Go(func() {
				v.Sleep(time.Microsecond)
				ch.Send(i)
			})
			got, ok, timedOut := ch.RecvTimeout(30 * time.Second)
			if !ok || timedOut || got != i {
				t.Errorf("RecvTimeout %d = (%d, %v, %v), want the value", i, got, ok, timedOut)
				return
			}
		}
		if s := v.String(); !strings.Contains(s, " timers=0)") {
			t.Errorf("cancelled timeouts still queued: %s", s)
		}
	})
}

// TestVirtualSleepAllocs pins the allocations of one Sleep at zero: its
// timer entry lives in the sleeping goroutine.
func TestVirtualSleepAllocs(t *testing.T) {
	v := NewVirtual(epoch)
	var allocs float64
	v.Run(func() {
		allocs = testing.AllocsPerRun(1000, func() { v.Sleep(time.Millisecond) })
	})
	t.Logf("%.1f allocations per Virtual.Sleep", allocs)
	if allocs > 0 {
		t.Errorf("Virtual.Sleep allocates %.1f times, want 0", allocs)
	}
}

// TestVirtualRecvTimeoutAllocs pins a virtual-clock RecvTimeout at zero
// allocations in steady state, both when a SendAfter delivery answers it
// and when it times out: the waiter and its timeout entry are reused
// with the mailbox, and a delivery's entry comes from the clock's free
// list.
func TestVirtualRecvTimeoutAllocs(t *testing.T) {
	v := NewVirtual(epoch)
	var delivered, timedOut float64
	v.Run(func() {
		ch := NewChan[int](v)
		delivered = testing.AllocsPerRun(1000, func() {
			ch.SendAfter(time.Millisecond, 1)
			if _, ok, _ := ch.RecvTimeout(time.Second); !ok {
				t.Fatal("RecvTimeout missed the delivery")
			}
		})
		timedOut = testing.AllocsPerRun(1000, func() {
			if _, _, to := ch.RecvTimeout(time.Millisecond); !to {
				t.Fatal("RecvTimeout on an empty mailbox did not time out")
			}
		})
	})
	t.Logf("%.1f allocations per delivered RecvTimeout, %.1f per timed-out one", delivered, timedOut)
	if delivered > 0 || timedOut > 0 {
		t.Errorf("RecvTimeout allocates %.1f (delivered) and %.1f (timed out) times, want 0", delivered, timedOut)
	}
}

// TestVirtualCondAllocs pins a Cond.Wait woken by Signal at zero
// allocations in steady state: each Cond reuses one waiter.
func TestVirtualCondAllocs(t *testing.T) {
	v := NewVirtual(epoch)
	var mu sync.Mutex
	cond := NewCond(v, &mu)
	var allocs float64
	v.Run(func() {
		n, stop := 0, false
		v.Go(func() {
			mu.Lock()
			defer mu.Unlock()
			for !stop {
				mu.Unlock()
				v.Sleep(time.Millisecond)
				mu.Lock()
				n++
				cond.Signal()
			}
		})
		seen := 0
		allocs = testing.AllocsPerRun(1000, func() {
			mu.Lock()
			for n == seen {
				cond.Wait()
			}
			seen = n
			mu.Unlock()
		})
		mu.Lock()
		stop = true
		mu.Unlock()
	})
	t.Logf("%.1f allocations per Cond.Wait/Signal cycle", allocs)
	if allocs > 0 {
		t.Errorf("Cond.Wait/Signal allocates %.1f times, want 0", allocs)
	}
}

const (
	kindSleep     = iota // Sleep
	kindTimeout          // RecvTimeout nobody answers
	kindAnswered         // RecvTimeout its canceller answers
	kindCanceller        // Sleep, then Send to its peer
)

type plannedTimer struct {
	kind     int
	deadline time.Duration
	peer     int // kindAnswered ⇄ kindCanceller
}

// TestTimerOrderMatchesReference arms a seeded mix of timers, one per
// goroutine in spawn order (goroutines run in the order they were
// spawned), over a handful of shared deadlines: Sleeps, timeouts that fire,
// and timeouts answered by a canceller armed before or after them at an
// earlier, equal or later deadline. The wake order must be the reference
// sort, by (deadline, arm order), of the timers that were not cancelled.
func TestTimerOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		checkTimerOrder(t, seed)
	}
}

func checkTimerOrder(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	deadline := func() time.Duration { return time.Duration(1+rng.Intn(5)) * time.Millisecond }
	var plan []plannedTimer
	for len(plan) < 48 {
		switch rng.Intn(3) {
		case 0:
			plan = append(plan, plannedTimer{kind: kindSleep, deadline: deadline()})
		case 1:
			plan = append(plan, plannedTimer{kind: kindTimeout, deadline: deadline()})
		default:
			plan = append(plan,
				plannedTimer{kind: kindAnswered, deadline: deadline()},
				plannedTimer{kind: kindCanceller, deadline: deadline()})
		}
	}
	// Arm order is plan order: shuffle, then link each pair by index.
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	var answered, cancellers []int
	for i, p := range plan {
		switch p.kind {
		case kindAnswered:
			answered = append(answered, i)
		case kindCanceller:
			cancellers = append(cancellers, i)
		}
	}
	for k, a := range answered {
		c := cancellers[k]
		plan[a].peer, plan[c].peer = c, a
	}
	// A timeout is cancelled when its canceller fires first.
	cancelled := func(i int) bool {
		p := plan[i]
		if p.kind != kindAnswered {
			return false
		}
		c := plan[p.peer]
		return c.deadline < p.deadline || c.deadline == p.deadline && p.peer < i
	}

	v := NewVirtual(epoch)
	chans := make([]*Chan[int], len(plan))
	for i := range chans {
		chans[i] = NewChan[int](v)
	}
	var mu sync.Mutex
	var woke []int
	record := func(i int) {
		mu.Lock()
		woke = append(woke, i)
		mu.Unlock()
	}
	v.Run(func() {
		for i, p := range plan {
			v.Go(func() {
				switch p.kind {
				case kindSleep:
					v.Sleep(p.deadline)
					record(i)
				case kindCanceller:
					v.Sleep(p.deadline)
					record(i)
					chans[p.peer].Send(i)
				default:
					got, ok, timedOut := chans[i].RecvTimeout(p.deadline)
					if timedOut {
						record(i)
					} else if !ok || got != p.peer {
						t.Errorf("seed %d: timer %d received (%d, %v), want its canceller %d", seed, i, got, ok, p.peer)
					}
				}
			})
		}
	})

	var want []int
	var last time.Duration
	for i, p := range plan {
		if !cancelled(i) {
			want = append(want, i)
			last = max(last, p.deadline)
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return plan[want[a]].deadline < plan[want[b]].deadline })
	if !slices.Equal(woke, want) {
		t.Fatalf("seed %d: wake order %v, want %v", seed, woke, want)
	}
	// Cancelled timeouts never move time, even when they are the latest.
	if got := v.Now(); !got.Equal(epoch.Add(last)) {
		t.Fatalf("seed %d: simulation ended at %v, want %v", seed, got, epoch.Add(last))
	}
}
