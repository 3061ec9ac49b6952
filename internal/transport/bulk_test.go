package transport

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/simclock"
)

// tcpConnPair returns the two ends of one loopback TCP connection.
func tcpConnPair(t *testing.T) (dialed, accepted *tcpConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	type accept struct {
		c   net.Conn
		err error
	}
	ch := make(chan accept, 1)
	go func() {
		c, err := l.Accept()
		ch <- accept{c, err}
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatalf("Accept: %v", a.err)
	}
	dialed = newTCPConn(c)
	accepted = newTCPConn(a.c)
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return dialed, accepted
}

// Block-sized transfers must not leave block-sized scratch behind: the
// bulk goes from the sender's slice to the socket and from the socket to
// a pooled buffer, and only the head passes through wbuf and rbuf.
func TestTCPScratchStaysSmallAcrossBulkTransfers(t *testing.T) {
	registerFuzzBlob()
	a, b := tcpConnPair(t)
	payload := bytes.Repeat([]byte{0x5C}, 4<<20)
	for round := 0; round < 4; round++ {
		for _, dir := range []struct{ from, to *tcpConn }{{a, b}, {b, a}} {
			errc := make(chan error, 1)
			go func() {
				errc <- dir.from.Send(Message{ID: uint64(round), Method: "put", Body: fuzzBulk{Tag: "t", Data: payload}})
			}()
			m, err := dir.to.Recv()
			if err != nil {
				t.Fatalf("Recv: %v", err)
			}
			if err := <-errc; err != nil {
				t.Fatalf("Send: %v", err)
			}
			got := m.Body.(fuzzBulk)
			if !got.pooled || !bytes.Equal(got.Data, payload) {
				t.Fatalf("round %d: body pooled=%v, %d bytes", round, got.pooled, len(got.Data))
			}
			bufpool.Put(got.Data)
		}
	}
	for name, c := range map[string]*tcpConn{"dialed": a, "accepted": b} {
		if cap(c.wbuf) > maxHeadSize || cap(c.rbuf) > maxHeadSize {
			t.Errorf("%s conn scratch grew to wbuf %d / rbuf %d bytes, want ≤ %d", name, cap(c.wbuf), cap(c.rbuf), maxHeadSize)
		}
		if c.vec[2] != nil {
			t.Errorf("%s conn still references the last payload it sent", name)
		}
	}
}

// recvFrom feeds stream to a fresh conn's receive side and returns the
// first Recv's outcome. Recv runs on the calling goroutine, so a buffer
// it gives back lands where the caller's next bufpool.Get looks first.
func recvFrom(t *testing.T, stream []byte) (Message, error) {
	t.Helper()
	client, server := net.Pipe()
	go func() {
		client.SetWriteDeadline(time.Now().Add(5 * time.Second))
		client.Write(stream)
		client.Close()
	}()
	conn := newTCPConn(server)
	defer conn.Close()
	server.SetReadDeadline(time.Now().Add(5 * time.Second))
	return conn.Recv()
}

// Every way a bulk unit can fail once Recv has taken its buffer must
// put the buffer back. bufpool keeps no books, so the test marks the
// bytes on the wire and looks for the marks in what the pool hands out
// next: a fresh allocation would be zeros.
func TestTCPRecvBulkFailureReturnsBuffer(t *testing.T) {
	registerFuzzBlob()
	const size = 3000 // the 4 KiB class
	goodHead, _ := appendBulkUnitHead(nil, &Message{ID: 1, Method: "m", Body: fuzzBulk{Tag: "t"}},
		mustLookupFramer(t, fuzzBulk{}))
	notBulkHead := appendEnvelope(nil, &Message{ID: 1}, mustLookupFramer(t, fuzzBlob{}))
	unknownHead := appendEnvelope(nil, &Message{ID: 1}, &framerInfo{name: "transport.noSuchType"})
	trailingHead := append(append([]byte(nil), goodHead...), 0)

	for i, tc := range []struct {
		name string
		head []byte
		sent int // bulk bytes that really follow the head
	}{
		{"short read", goodHead, size / 2},
		{"bad head", goodHead[:2], size},
		{"unregistered type", unknownHead, size},
		{"not a bulk type", notBulkHead, size},
		{"DecodeHead error", trailingHead, size},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A mark of the case's own, so a buffer an earlier case put
			// back cannot vouch for this one.
			mark := byte(0xE0 + i)
			stream := bulkUnit(tc.head, bytes.Repeat([]byte{mark}, tc.sent), len(tc.head), size)
			// sync.Pool may drop a buffer (always possible, and one time
			// in four under the race detector), so a miss is retried; a
			// leak misses every time.
			for attempt := 0; attempt < 20; attempt++ {
				if _, err := recvFrom(t, stream); err == nil {
					t.Fatal("Recv accepted a malformed bulk unit")
				}
				got := bufpool.Get(size)
				if got[0] == mark && got[size/2-1] == mark {
					return
				}
			}
			t.Error("the buffer Recv took never came back to the pool")
		})
	}

	// The same stream, well formed, hands the buffer to the body.
	marked := bytes.Repeat([]byte{0xD1}, size)
	m, err := recvFrom(t, bulkUnit(goodHead, marked, len(goodHead), size))
	if err != nil {
		t.Fatalf("Recv of the well-formed unit: %v", err)
	}
	if b := m.Body.(fuzzBulk); !b.pooled || !bytes.Equal(b.Data, marked) {
		t.Errorf("well-formed unit decoded to pooled=%v, %d bytes", b.pooled, len(b.Data))
	}
}

// Lengths over the caps are refused before any buffer is taken: the
// reader would otherwise sit in ReadFull waiting for bytes that never
// come, so a prompt error is the observable difference.
func TestTCPRecvBulkRefusesOversizeLengths(t *testing.T) {
	registerFuzzBlob()
	for name, stream := range map[string][]byte{
		"bulk over cap": bulkUnit(nil, nil, 4, maxUnitSize+1),
		"head over cap": bulkUnit(nil, nil, maxHeadSize+1, 0),
	} {
		client, server := net.Pipe()
		go client.Write(stream) // left open: only a length check can end Recv
		conn := newTCPConn(server)
		server.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := conn.Recv()
		if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
			t.Errorf("%s: Recv = %v, want a size-limit error", name, err)
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("%s: Recv waited for the payload instead of refusing its length", name)
		}
		conn.Close()
		client.Close()
	}
}

// A bulk unit that fails to decode is a protocol error like any other:
// the server drops the connection.
func TestTCPBulkDecodeErrorTearsConnDown(t *testing.T) {
	registerFuzzBlob()
	clock := simclock.NewReal()
	tnet := NewTCPNetwork()
	l, err := tnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	srv := NewServer(clock)
	srv.Handle("echo", func(arg any) (any, error) { return arg, nil })
	srv.ServeBackground(l)
	defer srv.Close()

	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer raw.Close()
	head, _ := appendBulkUnitHead(nil, &Message{ID: 1, Method: "echo", Body: fuzzBulk{Tag: "t"}},
		mustLookupFramer(t, fuzzBulk{}))
	bad := bulkUnit(append(head, 0), []byte("payload"), len(head)+1, 7) // trailing byte in the head
	if _, err := raw.Write(bad); err != nil {
		t.Fatalf("Write: %v", err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("after a malformed bulk unit the server answered %d bytes, err %v; want the conn closed", n, err)
	}
}
