package transport

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/simclock"
)

// Tests of CallInto's destination: a bulk reply of exactly len(dst)
// bytes is received into dst, any other reply is not, and no byte
// reaches dst once its call has returned, over TCP and in memory. None
// of them measures time: the timeouts only make calls give up.

// replyLog is a Listener whose conns report the ID of every reply they
// have finished writing, so a test knows what is already on the wire.
type replyLog struct {
	Listener
	sent chan uint64
}

func (l replyLog) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return replyLogConn{Conn: c, sent: l.sent}, nil
}

type replyLogConn struct {
	Conn
	sent chan uint64
}

func (c replyLogConn) Send(m Message) error {
	err := c.Conn.Send(m)
	if m.Reply {
		c.sent <- m.ID
	}
	return err
}

// bulkServer serves handlers over TCP loopback and returns its address
// and the log of replies written.
func bulkServer(t *testing.T, handlers map[string]HandlerFunc) (string, chan uint64) {
	t.Helper()
	registerFuzzBlob()
	l, err := NewTCPNetwork().Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := NewServer(simclock.NewReal())
	for m, fn := range handlers {
		srv.Handle(m, fn)
	}
	sent := make(chan uint64, 16)
	srv.ServeBackground(replyLog{Listener: l, sent: sent})
	t.Cleanup(func() { l.Close(); srv.Close() })
	return l.Addr(), sent
}

func dialBulk(t *testing.T, addr string, timeout time.Duration) *Client {
	t.Helper()
	c, err := Dial(simclock.NewReal(), NewTCPNetwork(), addr, WithCallTimeout(timeout))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func filled(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

// A reply that arrives after its call timed out finds no destination:
// it is received into a pooled buffer and dropped, and the connection
// goes on serving calls.
func TestTCPLateBulkReplyMissesDst(t *testing.T) {
	const size = 4096
	release := make(chan struct{})
	addr, sent := bulkServer(t, map[string]HandlerFunc{
		"slow": func(any) (any, error) {
			<-release
			return fuzzBulk{Tag: "late", Data: filled(size, 0xAA)}, nil
		},
		"fast": func(any) (any, error) { return fuzzBulk{Tag: "fast", Data: filled(size, 0xBB)}, nil },
	})
	c := dialBulk(t, addr, time.Second)

	dst := filled(size, 0x5E)
	if _, err := c.CallInto("slow", fuzzBlob{Tag: "a"}, dst); !errors.Is(err, ErrTimeout) {
		t.Fatalf("slow call: err = %v, want ErrTimeout", err)
	}
	close(release)
	if id := <-sent; id != 1 {
		t.Fatalf("first reply written is for call %d, want the late reply to call 1", id)
	}
	// The late reply is on the wire ahead of this one, so the receive
	// loop has consumed it by the time this call completes.
	dst2 := make([]byte, size)
	body, err := CallInto[fuzzBulk](c, "fast", fuzzBlob{Tag: "b"}, dst2)
	if err != nil {
		t.Fatalf("call after the late reply: %v", err)
	}
	if body.pooled || &body.Data[0] != &dst2[0] || !bytes.Equal(dst2, filled(size, 0xBB)) {
		t.Errorf("second reply: pooled=%v, in dst=%v, want it received into its dst", body.pooled, &body.Data[0] == &dst2[0])
	}
	if !bytes.Equal(dst, filled(size, 0x5E)) {
		t.Error("the late reply reached the destination of the call that timed out")
	}
}

// In memory too, a reply that comes after its call timed out finds no
// destination: its handler sleeps on the virtual clock past the call
// timeout, and its bytes, copied at Send, land in a pooled buffer.
func TestInmemLateBulkReplyMissesDst(t *testing.T) {
	const size = 4096
	registerFuzzBlob()
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	srv := NewServer(v)
	srv.Handle("slow", func(any) (any, error) {
		v.Sleep(2 * time.Second)
		return fuzzBulk{Tag: "late", Data: filled(size, 0xAA)}, nil
	})
	srv.Handle("fast", func(any) (any, error) { return fuzzBulk{Tag: "fast", Data: filled(size, 0xBB)}, nil })
	l, err := net.Listen("dn")
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeBackground(l)
	defer srv.Close()
	v.Run(func() {
		c, err := Dial(v, net, "dn", WithCallTimeout(time.Second))
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		dst := filled(size, 0x5E)
		if _, err := c.CallInto("slow", fuzzBlob{Tag: "a"}, dst); !errors.Is(err, ErrTimeout) {
			t.Errorf("slow call: err = %v, want ErrTimeout", err)
			return
		}
		v.Sleep(2 * time.Second) // the late reply is sent and delivered
		dst2 := make([]byte, size)
		body, err := CallInto[fuzzBulk](c, "fast", fuzzBlob{Tag: "b"}, dst2)
		if err != nil {
			t.Errorf("call after the late reply: %v", err)
			return
		}
		if body.pooled || &body.Data[0] != &dst2[0] || !bytes.Equal(dst2, filled(size, 0xBB)) {
			t.Errorf("second reply: pooled=%v, in dst=%v, want it received into its dst", body.pooled, &body.Data[0] == &dst2[0])
		}
		if !bytes.Equal(dst, filled(size, 0x5E)) {
			t.Error("the late reply reached the destination of the call that timed out")
		}
	})
}

// An in-memory CallInto whose bulk reply matches dst copies the bytes
// into dst at Send and allocates no payload-sized buffer: a fresh or
// pooled copy per call would cost about the payload in bytes.
func TestInmemBulkCallIntoAllocs(t *testing.T) {
	const (
		size         = 1 << 20
		calls        = 200
		byteCeiling  = size / 64
		allocCeiling = 8
	)
	registerFuzzBlob()
	v := simclock.NewVirtual(epoch)
	net := NewInmemNetwork(v)
	srv := NewServer(v)
	payload := filled(size, 0x3C)
	srv.Handle("block", func(any) (any, error) { return fuzzBulk{Tag: "b", Data: payload}, nil })
	l, err := net.Listen("dn")
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeBackground(l)
	defer srv.Close()
	var allocs, bytesPer float64
	v.Run(func() {
		c, err := Dial(v, net, "dn")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		dst := make([]byte, size)
		call := func() {
			body, err := CallInto[fuzzBulk](c, "block", 1, dst)
			if err != nil || body.pooled || &body.Data[0] != &dst[0] {
				t.Fatalf("call: err %v; the reply did not land in dst", err)
			}
		}
		for i := 0; i < 20; i++ { // warm the pools and worker stacks
			call()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / calls
		bytesPer = float64(after.TotalAlloc-before.TotalAlloc) / calls
	})
	t.Logf("%.2f allocations, %.0f bytes per in-memory %d-byte CallInto (ceilings %d, %d)",
		allocs, bytesPer, size, allocCeiling, byteCeiling)
	if !bytes.Equal(payload, filled(size, 0x3C)) {
		t.Error("the call changed the sender's payload")
	}
	if allocs > allocCeiling || bytesPer > byteCeiling {
		t.Errorf("in-memory bulk CallInto allocates %.2f times, %.0f bytes; want ≤ %d and ≤ %d",
			allocs, bytesPer, allocCeiling, byteCeiling)
	}
}

// A peer that sends a reply's head and half its bulk and then stalls:
// the call times out, and nothing the peer writes afterwards reaches
// dst. Whether the half arrived before the timeout is up to the
// scheduler, so attempts repeat until one has received into dst, the
// case where the call must close the conn and wait for the receive loop
// to let go; every attempt must keep dst intact once the call returns.
func TestTCPStalledBulkReplyLetsGoOfDst(t *testing.T) {
	registerFuzzBlob()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	for attempt := 0; attempt < 5; attempt++ {
		if stalledReply(t, ln) {
			return
		}
	}
	t.Fatal("in no attempt did the stalled reply reach the client before its call timed out")
}

// stalledReply runs one attempt and reports whether the reply's first
// half was received into dst.
func stalledReply(t *testing.T, ln net.Listener) (received bool) {
	const size = 4096
	c, err := Dial(simclock.NewReal(), NewTCPNetwork(), ln.Addr().String(), WithCallTimeout(time.Second))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	defer peer.Close()
	head, _ := appendBulkUnitHead(nil, &Message{ID: 1, Reply: true, Body: fuzzBulk{Tag: "t"}},
		mustLookupFramer(t, fuzzBulk{}))
	go func() {
		// Answer only once the request is here, so call 1 is pending.
		peer.Read(make([]byte, 1))
		peer.Write(bulkUnit(head, filled(size/2, 0xA1), len(head), size))
	}()

	dst := filled(size, 0x5E)
	if _, err := c.CallInto("m", fuzzBlob{Tag: "x"}, dst); !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled call: err = %v, want ErrTimeout", err)
	}
	returned := append([]byte(nil), dst...)
	peer.SetWriteDeadline(time.Now().Add(5 * time.Second))
	peer.Write(filled(size/2, 0xA2)) // the rest of the bulk, too late
	c.Close()
	for { // until the receive loop has exited
		c.mu.Lock()
		done := c.closed
		c.mu.Unlock()
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !bytes.Equal(dst, returned) || !bytes.Equal(dst[size/2:], filled(size/2, 0x5E)) {
		t.Fatal("bytes reached dst after its call returned")
	}
	return bytes.Equal(dst[:size/2], filled(size/2, 0xA1))
}

// A bulk reply of any other length than len(dst) is received into a
// pooled buffer, as under Call, and leaves dst alone.
func TestTCPBulkReplyOfOtherLengthIsPooled(t *testing.T) {
	const size = 4096
	for _, n := range []int{size - 1, size + 1, size / 2} {
		addr, _ := bulkServer(t, map[string]HandlerFunc{
			"m": func(any) (any, error) { return fuzzBulk{Tag: "t", Data: filled(n, 0xC3)}, nil },
		})
		c := dialBulk(t, addr, 5*time.Second)
		dst := filled(size, 0x5E)
		body, err := CallInto[fuzzBulk](c, "m", fuzzBlob{Tag: "x"}, dst)
		if err != nil {
			t.Fatalf("%d-byte reply: %v", n, err)
		}
		if !body.pooled || !bytes.Equal(body.Data, filled(n, 0xC3)) {
			t.Errorf("%d-byte reply into a %d-byte dst: pooled=%v, %d bytes", n, size, body.pooled, len(body.Data))
		}
		if !bytes.Equal(dst, filled(size, 0x5E)) {
			t.Errorf("%d-byte reply wrote into a %d-byte dst", n, size)
		}
		bufpool.Put(body.Data)
	}
}
