package transport

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

// sized is a body of a chosen wire size.
type sized int64

func (s sized) WireSize() int64 { return int64(s) }

// oneWay is what the in-memory link charges a message: latency plus the
// body's transmit time at the link bandwidth.
func oneWay(body any) time.Duration {
	return linkLatency + time.Duration(float64(wireSize(body))/(linkMBps*1e6)*float64(time.Second))
}

// TestInmemLinkContract pins the in-memory link's timing. Several senders
// share one conn and send bodies of mixed size at seeded instants: each
// message must arrive, in send order, at max(sent, previous delivery) +
// latency + transmit. Closing the conn with messages in flight must still
// deliver them, at the same instants, before the receiver sees the close.
// The bodies (up to 800 KiB, up to 655 µs on the wire) outlast the gaps
// between sends, so nearly every message queues behind an earlier one.
func TestInmemLinkContract(t *testing.T) {
	const (
		senders = 4
		each    = 25
	)
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	l, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	type event struct {
		id uint64
		at time.Time
	}
	var (
		mu      sync.Mutex
		sent    []event // in the order the conn accepted them
		size    = map[uint64]sized{}
		got     []event
		closed  bool
		refused bool
	)
	v.Run(func() {
		v.Go(func() {
			conn, err := l.Accept()
			if err != nil {
				t.Errorf("Accept: %v", err)
				return
			}
			for {
				m, err := conn.Recv()
				if err != nil {
					closed = errors.Is(err, ErrClosed)
					return
				}
				got = append(got, event{m.ID, v.Now()})
			}
		})
		conn, err := net.Dial("srv")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		send := func(id uint64, body sized) {
			mu.Lock()
			defer mu.Unlock()
			if err := conn.Send(Message{ID: id, Body: body}); err != nil {
				t.Errorf("Send %d: %v", id, err)
				return
			}
			sent = append(sent, event{id, v.Now()})
			size[id] = body
		}
		wg := simclock.NewWaitGroup(v)
		for s := 0; s < senders; s++ {
			wg.Go(func() {
				rng := rand.New(rand.NewSource(int64(s + 1)))
				for i := 0; i < each; i++ {
					v.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
					send(uint64(s*each+i), sized(rng.Intn(800<<10)))
				}
			})
		}
		wg.Wait()
		// A last burst still in flight when the conn closes.
		for i := 0; i < 5; i++ {
			send(uint64(senders*each+i), sized(400<<10))
		}
		conn.Close()
		refused = conn.Send(Message{ID: 1 << 40}) != nil
	})

	if len(got) != len(sent) {
		t.Fatalf("received %d messages, sent %d", len(got), len(sent))
	}
	var prev time.Time
	queued := 0
	for i, s := range sent {
		deliver := s.at
		if prev.After(deliver) {
			deliver = prev
			queued++
		}
		deliver = deliver.Add(oneWay(size[s.id]))
		prev = deliver
		if got[i].id != s.id || !got[i].at.Equal(deliver) {
			t.Fatalf("delivery %d: message %d at %v, want message %d at %v",
				i, got[i].id, got[i].at.Sub(epoch), s.id, deliver.Sub(epoch))
		}
	}
	if queued < len(sent)*9/10 {
		t.Errorf("%d of %d messages queued behind an earlier delivery; the check needs a busy link", queued, len(sent))
	}
	if !closed {
		t.Error("receiver did not see ErrClosed after the queued messages")
	}
	if !refused {
		t.Error("Send after Close succeeded")
	}
}

// TestInmemEchoVirtualTime: n sequential echo RPCs over the default
// network take exactly n round trips of latency plus a control message's
// transmit time; handlers and dispatch cost no virtual time.
func TestInmemEchoVirtualTime(t *testing.T) {
	const n = 2050
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	startEchoServer(t, v, net, "nn")
	var took time.Duration
	v.Run(func() {
		c, err := Dial(v, net, "nn")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		start := v.Now()
		for i := 0; i < n; i++ {
			if _, err := Call[echoResp](c, "echo", echoReq{Text: "x"}); err != nil {
				t.Errorf("Call: %v", err)
				return
			}
		}
		took = v.Now().Sub(start)
	})
	want := n * 2 * oneWay(echoReq{})
	if took != want {
		t.Errorf("%d echo RPCs took %v of virtual time, want %v", n, took, want)
	}
}

// TestInmemEchoAllocs pins the allocations of one echo RPC on the virtual
// clock, counted across every goroutine it touches: the call, the link
// deliveries, the server's dispatch and handler. Pump goroutines and a
// fresh goroutine per handler made it 22; a fresh waiter and timer entry
// per virtual-clock wait made it 10. It is 1 now.
func TestInmemEchoAllocs(t *testing.T) {
	const (
		calls   = 2000
		ceiling = 3
	)
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	srv := NewServer(v)
	srv.Handle("echo", func(arg any) (any, error) { return arg, nil })
	l, err := net.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeBackground(l)
	defer srv.Close()
	var allocs float64
	v.Run(func() {
		c, err := Dial(v, net, "nn")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		call := func() {
			if _, err := c.Call("echo", 42); err != nil {
				t.Fatalf("Call: %v", err)
			}
		}
		for i := 0; i < 100; i++ { // warm the pools and worker stacks
			call()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / calls
	})
	t.Logf("%.2f allocations per virtual-clock echo RPC (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("echo RPC allocates %.2f times, want ≤ %d", allocs, ceiling)
	}
}

// TestInmemListenerAddr: a listener reports the address it was bound at,
// and a client dialing that address reaches its server.
func TestInmemListenerAddr(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	srv := NewServer(v)
	srv.Handle("echo", func(arg any) (any, error) { return arg, nil })
	l, err := net.Listen("dn7")
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Addr(); got != "dn7" {
		t.Fatalf("Addr = %q, want %q", got, "dn7")
	}
	srv.ServeBackground(l)
	defer srv.Close()
	v.Run(func() {
		c, err := Dial(v, net, l.Addr())
		if err != nil {
			t.Errorf("Dial(%q): %v", l.Addr(), err)
			return
		}
		defer c.Close()
		if got, err := c.Call("echo", 7); err != nil || got != 7 {
			t.Errorf("echo via Addr = %v, %v", got, err)
		}
	})
}
