package transport

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
)

var epoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

type echoReq struct{ Text string }
type echoResp struct{ Text string }

// The echo bodies are framed so they can cross a TCP conn.
func (r *echoReq) AppendFrame(buf []byte) []byte  { return appendText(buf, r.Text) }
func (r *echoReq) DecodeFrame(p []byte) error     { return decodeText(&r.Text, p) }
func (r *echoResp) AppendFrame(buf []byte) []byte { return appendText(buf, r.Text) }
func (r *echoResp) DecodeFrame(p []byte) error    { return decodeText(&r.Text, p) }

func appendText(buf []byte, text string) []byte {
	return append(appendUvarintLen(buf, len(text)), text...)
}

func decodeText(dst *string, p []byte) error {
	text, rest, err := uvarintBytes(p)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errFrame
	}
	*dst = string(text)
	return nil
}

var registerEcho = sync.OnceFunc(func() {
	RegisterFramer[echoReq]()
	RegisterFramer[echoResp]()
})

type bulkResp struct {
	N int64
}

func (b bulkResp) WireSize() int64 { return b.N }

func startEchoServer(t *testing.T, clock simclock.Clock, net Network, addr string) *Server {
	t.Helper()
	srv := NewServer(clock)
	srv.Handle("echo", func(arg any) (any, error) {
		req, ok := arg.(echoReq)
		if !ok {
			return nil, fmt.Errorf("bad arg %T", arg)
		}
		return echoResp{Text: req.Text}, nil
	})
	srv.Handle("fail", func(any) (any, error) {
		return nil, errors.New("boom")
	})
	srv.Handle("slow", func(any) (any, error) {
		clock.Sleep(time.Hour)
		return echoResp{}, nil
	})
	srv.Handle("bulk", func(arg any) (any, error) {
		n := arg.(echoReq)
		var size int64
		fmt.Sscan(n.Text, &size)
		return bulkResp{N: size}, nil
	})
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv.ServeBackground(l)
	return srv
}

func TestInmemEcho(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	startEchoServer(t, v, net, "nn")
	var got echoResp
	v.Run(func() {
		c, err := Dial(v, net, "nn")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		got, err = Call[echoResp](c, "echo", echoReq{Text: "hello"})
		if err != nil {
			t.Errorf("Call: %v", err)
		}
	})
	if got.Text != "hello" {
		t.Errorf("echo = %q", got.Text)
	}
}

func TestInmemLatencyCharged(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	startEchoServer(t, v, net, "nn")
	v.Run(func() {
		c, _ := Dial(v, net, "nn")
		defer c.Close()
		start := v.Now()
		if _, err := Call[echoResp](c, "echo", echoReq{Text: "x"}); err != nil {
			t.Errorf("Call: %v", err)
		}
		rtt := v.Now().Sub(start)
		if rtt < 2*linkLatency {
			t.Errorf("RTT %v below 2x one-way latency", rtt)
		}
		if rtt > 3*linkLatency {
			t.Errorf("RTT %v unexpectedly high", rtt)
		}
	})
}

func TestInmemBandwidthChargedForSizedBodies(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	startEchoServer(t, v, net, "nn")
	v.Run(func() {
		c, _ := Dial(v, net, "nn")
		defer c.Close()
		start := v.Now()
		// One second's worth of bytes at the link bandwidth takes ~1s on
		// the reply direction.
		if _, err := Call[bulkResp](c, "bulk", echoReq{Text: strconv.Itoa(linkMBps * 1e6)}); err != nil {
			t.Errorf("Call: %v", err)
		}
		d := v.Now().Sub(start)
		if d < 900*time.Millisecond || d > 1500*time.Millisecond {
			t.Errorf("bulk transfer took %v, want ~1s", d)
		}
	})
}

func TestRemoteErrorPropagates(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	startEchoServer(t, v, net, "nn")
	v.Run(func() {
		c, _ := Dial(v, net, "nn")
		defer c.Close()
		_, err := c.Call("fail", echoReq{})
		var re *RemoteError
		if !errors.As(err, &re) || re.Msg != "boom" {
			t.Errorf("err = %v, want RemoteError(boom)", err)
		}
	})
}

func TestUnknownMethod(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	startEchoServer(t, v, net, "nn")
	v.Run(func() {
		c, _ := Dial(v, net, "nn")
		defer c.Close()
		_, err := c.Call("nope", echoReq{})
		if err == nil || !strings.Contains(err.Error(), "unknown method") {
			t.Errorf("err = %v", err)
		}
	})
}

// Transport-level failures must surface as *CallError carrying the
// method and dialed address, while errors.Is still classifies the
// underlying cause. Remote handler failures must NOT be CallErrors.
func TestCallErrorCarriesMethodAndAddr(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	startEchoServer(t, v, net, "nn")
	v.Run(func() {
		c, _ := Dial(v, net, "nn", WithCallTimeout(time.Second))
		defer c.Close()

		_, err := c.Call("slow", echoReq{})
		var ce *CallError
		if !errors.As(err, &ce) {
			t.Fatalf("timeout err = %v (%T), want *CallError", err, err)
		}
		if ce.Method != "slow" || ce.Addr != "nn" {
			t.Errorf("CallError = {%q %q}, want {slow nn}", ce.Method, ce.Addr)
		}
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("errors.Is(err, ErrTimeout) = false for %v", err)
		}

		_, err = c.Call("fail", echoReq{})
		if errors.As(err, &ce) {
			t.Errorf("remote handler error %v should not be a *CallError", err)
		}

		c.Close()
		_, err = c.Call("echo", echoReq{})
		if !errors.As(err, &ce) || !errors.Is(err, ErrClosed) {
			t.Errorf("closed-client err = %v, want *CallError wrapping ErrClosed", err)
		}
	})
}

func TestCallTimeout(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	startEchoServer(t, v, net, "nn")
	v.Run(func() {
		c, _ := Dial(v, net, "nn", WithCallTimeout(2*time.Second))
		defer c.Close()
		start := v.Now()
		_, err := c.Call("slow", echoReq{})
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if d := v.Now().Sub(start); d < 2*time.Second || d > 3*time.Second {
			t.Errorf("timeout after %v, want ~2s", d)
		}
	})
}

// Regression test for the late-reply leak: a reply that arrives after
// Call has timed out and dropped its ID must be discarded (the dropped
// call's mailbox is closed), not buffered forever, and must never be
// delivered to a later call. The simulation must still quiesce.
func TestLateReplyAfterTimeoutDiscarded(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	srv := NewServer(v)
	srv.Handle("lag", func(arg any) (any, error) {
		v.Sleep(10 * time.Second) // replies well after the caller gave up
		return echoResp{Text: "stale"}, nil
	})
	srv.Handle("echo", func(arg any) (any, error) {
		return echoResp{Text: arg.(echoReq).Text}, nil
	})
	l, err := net.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeBackground(l)
	defer srv.Close()

	v.Run(func() {
		c, _ := Dial(v, net, "nn", WithCallTimeout(2*time.Second))
		defer c.Close()
		if _, err := c.Call("lag", echoReq{}); !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		// A fresh call issued while the stale reply is still in flight
		// must get its own reply, not the stale one.
		got, err := Call[echoResp](c, "echo", echoReq{Text: "fresh"})
		if err != nil || got.Text != "fresh" {
			t.Errorf("post-timeout call = %q, %v", got.Text, err)
		}
		// Let the stale reply arrive and be discarded; the connection
		// keeps working afterwards.
		v.Sleep(15 * time.Second)
		got, err = Call[echoResp](c, "echo", echoReq{Text: "after"})
		if err != nil || got.Text != "after" {
			t.Errorf("post-stale-reply call = %q, %v", got.Text, err)
		}
	})
	// v.Run returning proves the simulation quiesced: nothing is left
	// runnable and no timer leaked with the dropped call's mailbox.
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	startEchoServer(t, v, net, "nn")
	var mu sync.Mutex
	results := map[string]bool{}
	v.Run(func() {
		c, _ := Dial(v, net, "nn")
		defer c.Close()
		wg := simclock.NewWaitGroup(v)
		for i := 0; i < 20; i++ {
			i := i
			wg.Go(func() {
				want := fmt.Sprintf("msg-%d", i)
				got, err := Call[echoResp](c, "echo", echoReq{Text: want})
				if err != nil {
					t.Errorf("Call: %v", err)
					return
				}
				mu.Lock()
				results[got.Text] = true
				mu.Unlock()
			})
		}
		wg.Wait()
	})
	if len(results) != 20 {
		t.Errorf("got %d distinct replies, want 20", len(results))
	}
}

func TestDialUnknownAddr(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	if _, err := net.Dial("missing"); err == nil {
		t.Error("Dial to unknown addr succeeded")
	}
}

func TestDuplicateListen(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	if _, err := net.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Listen("a"); err == nil {
		t.Error("duplicate Listen succeeded")
	}
}

func TestServerCloseFailsInFlightCalls(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	srv := startEchoServer(t, v, net, "nn")
	v.Run(func() {
		c, _ := Dial(v, net, "nn")
		done := simclock.NewChan[error](v)
		v.Go(func() {
			_, err := c.Call("slow", echoReq{})
			done.Send(err)
		})
		v.Sleep(time.Second)
		srv.Close()
		err, _ := done.Recv()
		if err == nil {
			t.Error("in-flight call survived server close")
		}
	})
}

func TestClientCloseFailsPending(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	startEchoServer(t, v, net, "nn")
	v.Run(func() {
		c, _ := Dial(v, net, "nn")
		done := simclock.NewChan[error](v)
		v.Go(func() {
			_, err := c.Call("slow", echoReq{})
			done.Send(err)
		})
		v.Sleep(time.Second)
		c.Close()
		err, _ := done.Recv()
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
		if _, err := c.Call("echo", echoReq{}); !errors.Is(err, ErrClosed) {
			t.Errorf("post-close call err = %v", err)
		}
	})
}

func TestTypedCallWrongType(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	startEchoServer(t, v, net, "nn")
	v.Run(func() {
		c, _ := Dial(v, net, "nn")
		defer c.Close()
		_, err := Call[int](c, "echo", echoReq{Text: "x"})
		if err == nil || !strings.Contains(err.Error(), "reply type") {
			t.Errorf("err = %v", err)
		}
	})
}

func TestTCPEcho(t *testing.T) {
	registerEcho()
	clock := simclock.NewReal()
	tnet := NewTCPNetwork()
	srv := NewServer(clock)
	srv.Handle("echo", func(arg any) (any, error) {
		return echoResp{Text: arg.(echoReq).Text}, nil
	})
	l, err := tnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	srv.ServeBackground(l)
	defer srv.Close()

	c, err := Dial(clock, tnet, l.Addr(), WithCallTimeout(5*time.Second))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	got, err := Call[echoResp](c, "echo", echoReq{Text: "over tcp"})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got.Text != "over tcp" {
		t.Errorf("echo = %q", got.Text)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	registerEcho()
	clock := simclock.NewReal()
	tnet := NewTCPNetwork()
	srv := NewServer(clock)
	srv.Handle("echo", func(arg any) (any, error) {
		return echoResp{Text: arg.(echoReq).Text}, nil
	})
	l, err := tnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv.ServeBackground(l)
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(clock, tnet, l.Addr(), WithCallTimeout(5*time.Second))
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				want := fmt.Sprintf("c%d-m%d", i, j)
				got, err := Call[echoResp](c, "echo", echoReq{Text: want})
				if err != nil || got.Text != want {
					t.Errorf("call %s: got %q err %v", want, got.Text, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestHandlerPanicBecomesError(t *testing.T) {
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	srv := NewServer(v)
	srv.Handle("boom", func(any) (any, error) { panic("kaboom") })
	srv.Handle("ok", func(arg any) (any, error) { return arg, nil })
	l, err := net.Listen("nn")
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeBackground(l)
	defer srv.Close()
	v.Run(func() {
		c, _ := Dial(v, net, "nn")
		defer c.Close()
		_, err := c.Call("boom", 1)
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("err = %v", err)
		}
		// The server survives and keeps handling other calls.
		if got, err := c.Call("ok", 7); err != nil || got != 7 {
			t.Errorf("post-panic call: %v %v", got, err)
		}
	})
}

// Property: per-connection message order is preserved regardless of
// payload sizes (the link serializes transmission).
func TestInmemOrderingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 30 {
			return true
		}
		v := simclock.NewVirtual(epoch)
		net := NewInmemNetwork(v)
		l, err := net.Listen("srv")
		if err != nil {
			return false
		}
		var got []uint64
		vDone := make(chan struct{})
		v.Go(func() {
			defer close(vDone)
			recvDone := simclock.NewChan[struct{}](v)
			v.Go(func() {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				for i := 0; i < len(sizes); i++ {
					m, err := conn.Recv()
					if err != nil {
						return
					}
					got = append(got, m.ID)
				}
				recvDone.Send(struct{}{})
			})
			conn, err := net.Dial("srv")
			if err != nil {
				return
			}
			for i, sz := range sizes {
				_ = conn.Send(Message{ID: uint64(i), Body: bulkResp{N: int64(sz) * 125000}})
			}
			recvDone.Recv()
			conn.Close()
		})
		<-vDone
		if len(got) != len(sizes) {
			return false
		}
		for i, id := range got {
			if id != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// unframed is a body type with no registered Framer.
type unframed struct{ N int }

// A reply the TCP conn cannot encode fails the call with the handler's
// side of the story, instead of leaving the caller to time out, and the
// conn stays usable; so does a request it cannot encode, which fails
// before a byte is written.
func TestTCPUnencodableMessageFailsTheCall(t *testing.T) {
	registerEcho()
	clock := simclock.NewReal()
	tnet := NewTCPNetwork()
	srv := NewServer(clock)
	srv.Handle("echo", func(arg any) (any, error) {
		return echoResp{Text: arg.(echoReq).Text}, nil
	})
	srv.Handle("unframed", func(any) (any, error) { return unframed{N: 1}, nil })
	l, err := tnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv.ServeBackground(l)
	defer srv.Close()
	c, err := Dial(clock, tnet, l.Addr(), WithCallTimeout(5*time.Second))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	_, err = c.Call("unframed", echoReq{Text: "x"})
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "transport.unframed") {
		t.Errorf("unencodable reply: err = %v, want a RemoteError naming the type", err)
	}
	_, err = c.Call("echo", unframed{N: 2})
	var ce *CallError
	if !errors.As(err, &ce) || errors.Is(err, ErrTimeout) || !strings.Contains(err.Error(), "transport.unframed") {
		t.Errorf("unencodable request: err = %v, want a send CallError naming the type", err)
	}
	if got, err := Call[echoResp](c, "echo", echoReq{Text: "after"}); err != nil || got.Text != "after" {
		t.Errorf("next call on the same conn = %q, %v", got.Text, err)
	}
}

// Kind 0x00 was the gob unit; like any kind the conn does not know, it
// is a protocol error.
func TestTCPRecvRejectsUnknownUnitKinds(t *testing.T) {
	for _, kind := range []byte{0x00, 0x03, 0xFF} {
		if _, err := recvFrom(t, []byte{kind, 0x00}); err == nil || !strings.Contains(err.Error(), "unknown unit kind") {
			t.Errorf("unit kind %#x: Recv = %v, want an unknown-kind error", kind, err)
		}
	}
}

// regProbe is a family of distinct body types for registration tests.
type regProbe[N any] struct{ n N }

func (p *regProbe[N]) AppendFrame(buf []byte) []byte { return buf }
func (p *regProbe[N]) DecodeFrame(payload []byte) error {
	if len(payload) != 0 {
		return errFrame
	}
	return nil
}

// Codec lookups take no lock: registration publishes a new table. Under
// the race detector, lookups that run while types are registered must
// see every type registered before they started and never a torn table,
// and every type must be found once registration is done.
func TestFramerLookupsDuringRegistration(t *testing.T) {
	registerFuzzBlob()
	regs := []func(){
		RegisterFramer[regProbe[[1]byte]], RegisterFramer[regProbe[[2]byte]],
		RegisterFramer[regProbe[[3]byte]], RegisterFramer[regProbe[[4]byte]],
		RegisterFramer[regProbe[[5]byte]], RegisterFramer[regProbe[[6]byte]],
		RegisterFramer[regProbe[[7]byte]], RegisterFramer[regProbe[[8]byte]],
	}
	stop := make(chan struct{})
	var lookups sync.WaitGroup
	for i := 0; i < 4; i++ {
		lookups.Add(1)
		go func() {
			defer lookups.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if fi, ok := lookupFramer(fuzzBlob{}); !ok || fi.name != "transport.fuzzBlob" {
					t.Error("lookup by type lost a type registered before it started")
					return
				}
				if _, ok := lookupFramerByName([]byte("transport.fuzzBlob")); !ok {
					t.Error("lookup by name lost a type registered before it started")
					return
				}
			}
		}()
	}
	var registering sync.WaitGroup
	for _, register := range regs {
		registering.Add(1)
		go func() {
			defer registering.Done()
			register()
		}()
	}
	registering.Wait()
	close(stop)
	lookups.Wait()
	for _, body := range []any{
		regProbe[[1]byte]{}, regProbe[[2]byte]{}, regProbe[[3]byte]{}, regProbe[[4]byte]{},
		regProbe[[5]byte]{}, regProbe[[6]byte]{}, regProbe[[7]byte]{}, regProbe[[8]byte]{},
	} {
		fi, ok := lookupFramer(body)
		if !ok {
			t.Fatalf("%T not found after its registration", body)
		}
		if byName, ok := lookupFramerByName([]byte(fi.name)); !ok || byName != fi {
			t.Fatalf("%T not found by its name %q", body, fi.name)
		}
	}
}
