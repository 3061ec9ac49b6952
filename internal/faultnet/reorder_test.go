package faultnet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// A one-way partition a→b must lose only that direction: requests from
// a never arrive, while requests from b arrive (and are served) but
// their replies die crossing back.
func TestPartitionOneWayAsymmetry(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	fab := New(v, transport.NewInmemNetwork(v), 1)
	_, servedA := startEcho(t, v, fab.Node("a"), "a")
	_, servedB := startEcho(t, v, fab.Node("b"), "b")
	v.Run(func() {
		fromA, _ := transport.Dial(v, fab.Node("a"), "b", transport.WithCallTimeout(time.Second))
		fromB, _ := transport.Dial(v, fab.Node("b"), "a", transport.WithCallTimeout(time.Second))
		defer fromA.Close()
		defer fromB.Close()

		fab.PartitionOneWay([]string{"a"}, []string{"b"})
		if _, err := fromA.Call("echo", echoReq{}); err == nil {
			t.Fatalf("a->b call crossed a one-way partition")
		}
		if servedB.Load() != 0 {
			t.Fatalf("b served %d requests across the blocked direction", servedB.Load())
		}
		if _, err := fromB.Call("echo", echoReq{}); err == nil {
			t.Fatalf("b->a call completed although its reply direction is blocked")
		}
		if servedA.Load() != 1 {
			t.Fatalf("a served %d requests, want 1 (the open direction)", servedA.Load())
		}

		fab.Heal()
		if _, err := fromA.Call("echo", echoReq{}); err != nil {
			t.Fatalf("a->b after heal: %v", err)
		}
		if _, err := fromB.Call("echo", echoReq{}); err != nil {
			t.Fatalf("b->a after heal: %v", err)
		}
	})
}

// runReorderScenario pushes n raw one-way messages through a reordered
// link and returns the server-side arrival order of their IDs.
func runReorderScenario(t *testing.T, seed int64, window, n int) []uint64 {
	t.Helper()
	v := simclock.NewVirtual(epoch)
	fab := New(v, transport.NewInmemNetwork(v), seed)
	var mu sync.Mutex
	var order []uint64
	v.Run(func() {
		l, err := fab.Node("srv").Listen("srv")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		v.Go(func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			for {
				m, err := conn.Recv()
				if err != nil {
					return
				}
				mu.Lock()
				order = append(order, m.ID)
				mu.Unlock()
			}
		})
		c, err := fab.Node("cli").Dial("srv")
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		fab.SetReorder("cli", "srv", window)
		for i := 0; i < n; i++ {
			if err := c.Send(transport.Message{ID: uint64(i + 1), Method: "msg"}); err != nil {
				t.Fatalf("Send %d: %v", i, err)
			}
			// One slot apart: the displacement bound below only holds for
			// sends spaced at least one slot-quantum apart (messages sent
			// in the same instant shuffle freely within their slot draws).
			v.Sleep(time.Millisecond)
		}
		// Every message is held at most window ms; sleep well past that
		// so all releases land before the conn closes.
		v.Sleep(time.Duration(window+2) * 2 * time.Millisecond)
		c.Close()
		l.Close()
	})
	mu.Lock()
	defer mu.Unlock()
	return append([]uint64(nil), order...)
}

func TestSetReorderShufflesWithinWindowDeterministically(t *testing.T) {
	const window, n = 8, 24
	a := runReorderScenario(t, 42, window, n)
	if len(a) != n {
		t.Fatalf("delivered %d messages, want %d: %v", len(a), n, a)
	}
	seen := make(map[uint64]bool, n)
	permuted := false
	for i, id := range a {
		if seen[id] {
			t.Fatalf("message %d delivered twice: %v", id, a)
		}
		seen[id] = true
		if id != uint64(i+1) {
			permuted = true
		}
		// A message can overtake at most window-1 predecessors and be
		// overtaken by at most window-1 successors.
		if d := int(id) - (i + 1); d < -(window-1) || d > window-1 {
			t.Fatalf("message %d displaced by %d, window %d: %v", id, d, window, a)
		}
	}
	if !permuted {
		t.Fatalf("window %d left the order untouched: %v", window, a)
	}
	if b := runReorderScenario(t, 42, window, n); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\nrun1: %v\nrun2: %v", a, b)
	}
	if c := runReorderScenario(t, 43, window, n); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("different seeds produced identical orders: %v", a)
	}
}

// Window 0 and 1 are no-ops: messages arrive in send order.
func TestSetReorderDisabled(t *testing.T) {
	for _, window := range []int{0, 1} {
		got := runReorderScenario(t, 42, window, 10)
		if len(got) != 10 {
			t.Fatalf("window %d: delivered %d messages, want 10", window, len(got))
		}
		for i, id := range got {
			if id != uint64(i+1) {
				t.Fatalf("window %d reordered: %v", window, got)
			}
		}
	}
}

// A listening side reorders the replies it sends by rule(listener →
// dialer). A held reply carries a copy of its bulk bytes taken at Send:
// the sender here refills one buffer for every reply, as a datanode
// reuses a replica's slot once the serve's Send returned, and every
// reply must still arrive with the bytes it was sent with.
func TestSetReorderHoldsRepliesWithTheirOwnBytes(t *testing.T) {
	const n, window, size = 16, 8, 1024
	v := simclock.NewVirtual(epoch)
	fab := New(v, transport.NewInmemNetwork(v), 42)
	var got []transport.Message
	v.Run(func() {
		l, err := fab.Node("srv").Listen("srv")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		fab.SetReorder("srv", "cli", window)
		c, err := fab.Node("cli").Dial("srv")
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		sc, err := l.Accept()
		if err != nil {
			t.Fatalf("Accept: %v", err)
		}
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			for k := range buf {
				buf[k] = byte(i)
			}
			if err := sc.Send(transport.Message{ID: uint64(i + 1), Reply: true,
				Body: dfs.ReadBlockResp{Data: buf, Size: size}}); err != nil {
				t.Fatalf("Send %d: %v", i, err)
			}
			v.Sleep(time.Millisecond)
		}
		for k := range buf {
			buf[k] = 0xFF
		}
		for i := 0; i < n; i++ {
			m, err := c.Recv()
			if err != nil {
				t.Fatalf("Recv %d: %v", i, err)
			}
			got = append(got, m)
		}
		c.Close()
		l.Close()
	})
	permuted := false
	for i, m := range got {
		if m.ID != uint64(i+1) {
			permuted = true
		}
		want := bytes.Repeat([]byte{byte(m.ID - 1)}, size)
		if data := m.Body.(dfs.ReadBlockResp).Data; !bytes.Equal(data, want) {
			t.Fatalf("reply %d arrived with another reply's bytes", m.ID)
		}
	}
	if !permuted {
		t.Fatalf("window %d left the replies in order", window)
	}
}
