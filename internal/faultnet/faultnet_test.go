package faultnet

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/transport"
)

var epoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

type echoReq struct{ Text string }
type echoResp struct{ Text string }

// startEcho runs an echo server on the fabric view for node, counting
// handled requests so tests can tell "request arrived, reply lost" from
// "request lost".
func startEcho(t *testing.T, clock simclock.Clock, net transport.Network, addr string) (*transport.Server, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	srv := transport.NewServer(clock)
	srv.Handle("echo", func(arg any) (any, error) {
		served.Add(1)
		return echoResp{Text: arg.(echoReq).Text}, nil
	})
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatalf("Listen(%s): %v", addr, err)
	}
	srv.ServeBackground(l)
	return srv, &served
}

func TestPassthroughNoFaults(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	fab := New(v, transport.NewInmemNetwork(v), 1)
	startEcho(t, v, fab.Node("srv"), "srv")
	v.Run(func() {
		c, err := transport.Dial(v, fab.Node("cli"), "srv")
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		got, err := transport.Call[echoResp](c, "echo", echoReq{Text: "hi"})
		if err != nil || got.Text != "hi" {
			t.Fatalf("echo = %q, %v", got.Text, err)
		}
	})
	if n := len(fab.Events()); n != 0 {
		t.Errorf("healthy run logged %d events: %v", n, fab.Events())
	}
}

func TestBlockedLinkTimesOutThenUnblockRecovers(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	fab := New(v, transport.NewInmemNetwork(v), 1)
	_, served := startEcho(t, v, fab.Node("srv"), "srv")
	v.Run(func() {
		c, _ := transport.Dial(v, fab.Node("cli"), "srv", transport.WithCallTimeout(2*time.Second))
		defer c.Close()

		fab.Block("cli", "srv")
		if _, err := c.Call("echo", echoReq{}); !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("blocked call err = %v, want ErrTimeout", err)
		}
		if served.Load() != 0 {
			t.Fatalf("request crossed a blocked link")
		}

		fab.Unblock("cli", "srv")
		if _, err := c.Call("echo", echoReq{}); err != nil {
			t.Fatalf("after unblock: %v", err)
		}
	})
}

// An asymmetric block of only the reply direction must lose the call
// even though the request was served — the signature of a one-way
// partition.
func TestAsymmetricBlockLosesRepliesOnly(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	fab := New(v, transport.NewInmemNetwork(v), 1)
	_, served := startEcho(t, v, fab.Node("srv"), "srv")
	v.Run(func() {
		c, _ := transport.Dial(v, fab.Node("cli"), "srv", transport.WithCallTimeout(2*time.Second))
		defer c.Close()

		fab.Block("srv", "cli")
		if _, err := c.Call("echo", echoReq{}); !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if served.Load() != 1 {
			t.Fatalf("served = %d, want 1 (request direction was open)", served.Load())
		}
	})
}

func TestDelayChargesSimulatedTime(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	fab := New(v, transport.NewInmemNetwork(v), 1)
	startEcho(t, v, fab.Node("srv"), "srv")
	v.Run(func() {
		c, _ := transport.Dial(v, fab.Node("cli"), "srv")
		defer c.Close()
		fab.SetDelay("cli", "srv", time.Second)
		fab.SetDelay("srv", "cli", 3*time.Second)
		start := v.Now()
		if _, err := c.Call("echo", echoReq{}); err != nil {
			t.Fatalf("Call: %v", err)
		}
		if d := v.Now().Sub(start); d < 4*time.Second || d > 5*time.Second {
			t.Errorf("delayed RTT = %v, want ~4s", d)
		}
	})
}

func TestDropAllTimesOutSetZeroRecovers(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	fab := New(v, transport.NewInmemNetwork(v), 1)
	_, served := startEcho(t, v, fab.Node("srv"), "srv")
	v.Run(func() {
		c, _ := transport.Dial(v, fab.Node("cli"), "srv", transport.WithCallTimeout(time.Second))
		defer c.Close()
		fab.SetDrop("cli", "srv", 1.0)
		if _, err := c.Call("echo", echoReq{}); !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if served.Load() != 0 {
			t.Fatalf("dropped request was served")
		}
		fab.SetDrop("cli", "srv", 0)
		if _, err := c.Call("echo", echoReq{}); err != nil {
			t.Fatalf("after drop cleared: %v", err)
		}
	})
}

func TestCrashKillsConnsAndListenersReviveRestores(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	base := transport.NewInmemNetwork(v)
	fab := New(v, base, 1)
	startEcho(t, v, fab.Node("srv"), "srv")
	v.Run(func() {
		c, _ := transport.Dial(v, fab.Node("cli"), "srv")
		if _, err := transport.Call[echoResp](c, "echo", echoReq{Text: "pre"}); err != nil {
			t.Fatalf("pre-crash call: %v", err)
		}

		fab.Crash("srv")
		if !fab.Crashed("srv") {
			t.Fatalf("Crashed(srv) = false after Crash")
		}
		// The established connection died with the node.
		if _, err := c.Call("echo", echoReq{}); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("post-crash call on old conn err = %v, want ErrClosed", err)
		}
		// New dials are refused while it is down.
		if _, err := fab.Node("cli").Dial("srv"); err == nil {
			t.Fatalf("Dial to crashed node succeeded")
		}
		// The crashed node cannot listen or dial either.
		if _, err := fab.Node("srv").Listen("srv2"); err == nil {
			t.Fatalf("crashed node could Listen")
		}
		if _, err := fab.Node("srv").Dial("cli"); err == nil {
			t.Fatalf("crashed node could Dial")
		}

		// Revive: the component restarts its listener and service resumes.
		fab.Revive("srv")
		startEcho(t, v, fab.Node("srv"), "srv")
		c2, err := transport.Dial(v, fab.Node("cli"), "srv")
		if err != nil {
			t.Fatalf("Dial after revive: %v", err)
		}
		defer c2.Close()
		if got, err := transport.Call[echoResp](c2, "echo", echoReq{Text: "post"}); err != nil || got.Text != "post" {
			t.Fatalf("post-revive echo = %q, %v", got.Text, err)
		}
	})
}

func TestCrashAfterFiresAtScheduledInstant(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	fab := New(v, transport.NewInmemNetwork(v), 1)
	startEcho(t, v, fab.Node("srv"), "srv")
	v.Run(func() {
		fab.CrashAfter("srv", 5*time.Second) // inside Run: see runLossyScenario
		c, err := transport.Dial(v, fab.Node("cli"), "srv")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		if _, err := c.Call("echo", echoReq{}); err != nil {
			t.Fatalf("call before scheduled crash: %v", err)
		}
		v.Sleep(6 * time.Second)
		if !fab.Crashed("srv") {
			t.Fatalf("node not crashed after schedule elapsed")
		}
		if _, err := c.Call("echo", echoReq{}); err == nil {
			t.Fatalf("call after scheduled crash succeeded")
		}
	})
	for _, e := range fab.Events() {
		if strings.Contains(e, "crash srv") {
			if !strings.HasPrefix(e, "[5s]") {
				t.Errorf("crash logged at %q, want [5s] prefix", e)
			}
			return
		}
	}
	t.Fatalf("no crash event logged: %v", fab.Events())
}

func TestPartitionAndHeal(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	fab := New(v, transport.NewInmemNetwork(v), 1)
	startEcho(t, v, fab.Node("a"), "a")
	startEcho(t, v, fab.Node("b"), "b")
	v.Run(func() {
		ca, _ := transport.Dial(v, fab.Node("b"), "a", transport.WithCallTimeout(time.Second))
		cb, _ := transport.Dial(v, fab.Node("a"), "b", transport.WithCallTimeout(time.Second))
		defer ca.Close()
		defer cb.Close()

		fab.Partition([]string{"a"}, []string{"b"})
		if _, err := ca.Call("echo", echoReq{}); !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("b->a across partition err = %v", err)
		}
		if _, err := cb.Call("echo", echoReq{}); !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("a->b across partition err = %v", err)
		}

		fab.Heal()
		if _, err := ca.Call("echo", echoReq{}); err != nil {
			t.Fatalf("b->a after heal: %v", err)
		}
		if _, err := cb.Call("echo", echoReq{}); err != nil {
			t.Fatalf("a->b after heal: %v", err)
		}
	})
}

// runLossyScenario drives a fixed serialized workload against a lossy
// link and returns the fabric's event log.
func runLossyScenario(t *testing.T, seed int64) []string {
	t.Helper()
	v := simclock.NewVirtual(epoch)
	fab := New(v, transport.NewInmemNetwork(v), seed)
	startEcho(t, v, fab.Node("srv"), "srv")
	v.Run(func() {
		// Armed inside Run: a sleeper started before the root goroutine
		// exists is the only thing the virtual clock has to wait for, so
		// the clock may jump the minute and crash srv before the dial.
		fab.CrashAfter("srv", time.Minute) // never fires within the scenario; exercises scheduling
		c, err := transport.Dial(v, fab.Node("cli"), "srv", transport.WithCallTimeout(500*time.Millisecond))
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		fab.SetDrop("cli", "srv", 0.4)
		fab.SetDrop("srv", "cli", 0.2)
		for i := 0; i < 30; i++ {
			_, err := c.Call("echo", echoReq{Text: fmt.Sprint(i)})
			_ = err // losses expected; the log is the artifact under test
		}
	})
	return fab.Events()
}

func TestSeededDropsAreBitIdentical(t *testing.T) {
	a := runLossyScenario(t, 42)
	b := runLossyScenario(t, 42)
	if len(a) == 0 {
		t.Fatalf("lossy scenario logged no events")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\nrun1: %v\nrun2: %v", a, b)
	}
	c := runLossyScenario(t, 43)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("different seeds produced identical drop patterns")
	}
}

// The fabric composes over the TCP transport too: crash must tear down
// real sockets and refuse new dials.
func TestTCPCrashKillsConns(t *testing.T) {
	clock := simclock.NewReal()
	fab := New(clock, transport.NewTCPNetwork(), 7)
	transport.RegisterType(echoReq{})
	transport.RegisterType(echoResp{})
	node := fab.Node("srv")
	srv := transport.NewServer(clock)
	srv.Handle("echo", func(arg any) (any, error) {
		return echoResp{Text: arg.(echoReq).Text}, nil
	})
	l, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv.ServeBackground(l)
	addr := l.Addr()

	c, err := transport.Dial(clock, fab.Node("cli"), addr, transport.WithCallTimeout(2*time.Second))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if got, err := transport.Call[echoResp](c, "echo", echoReq{Text: "tcp"}); err != nil || got.Text != "tcp" {
		t.Fatalf("echo over tcp = %q, %v", got.Text, err)
	}

	fab.Crash("srv")
	if _, err := c.Call("echo", echoReq{}); err == nil {
		t.Fatalf("call to crashed tcp node succeeded")
	}
	if _, err := fab.Node("cli").Dial(addr); err == nil {
		t.Fatalf("dial to crashed tcp node succeeded")
	}
}
