package simclock

import (
	"math/rand"
	"sort"
	"sync"
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
	v.Wait()
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
		// Spawn inside Run: the spawning goroutine holds a runnable
		// token, so no sleeper's timer fires before every sleeper exists.
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

func TestRealClockScaled(t *testing.T) {
	r := NewScaledReal(100)
	start := r.Now()
	wall := time.Now()
	r.Sleep(time.Second) // should take ~10ms of wall time
	if w := time.Since(wall); w > 500*time.Millisecond {
		t.Errorf("scaled sleep of 1s took %v of wall time", w)
	}
	if got := r.Now().Sub(start); got < time.Second {
		t.Errorf("scaled clock advanced only %v, want >= 1s", got)
	}
}

func TestRealClockBasics(t *testing.T) {
	r := NewReal()
	t0 := r.Now()
	r.Sleep(10 * time.Millisecond)
	if r.Now().Before(t0.Add(5 * time.Millisecond)) {
		t.Error("real clock did not advance with sleep")
	}
	done := make(chan struct{})
	r.Go(func() { close(done) })
	<-done
}

func TestNewScaledRealPanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-positive scale")
		}
	}()
	NewScaledReal(0)
}
