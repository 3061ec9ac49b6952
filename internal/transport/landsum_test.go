package transport

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"strconv"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/simclock"
)

// Tests of the sum recvBulk takes as it lands a bulk body: every body it
// lands, whatever memory it lands in and on either transport, carries
// the CRC32C of exactly its bytes, and a body cut off mid-payload
// carries none.

// eachTransport runs fn over TCP loopback and over the in-memory network
// (on the real clock), with the clock and the address to listen on.
func eachTransport(t *testing.T, fn func(t *testing.T, clock simclock.Clock, net Network, addr string)) {
	t.Run("tcp", func(t *testing.T) { fn(t, simclock.NewReal(), NewTCPNetwork(), "127.0.0.1:0") })
	t.Run("inmem", func(t *testing.T) {
		clock := simclock.NewReal()
		fn(t, clock, NewInmemNetwork(clock), "srv")
	})
}

// landSizes are body sizes on either side of the landing chunk, and one
// that ends in a partial chunk after many whole ones.
var landSizes = []int{1, landChunk - 1, landChunk, landChunk + 1, 4<<20 + 3}

// landPayloads returns a random payload of each of landSizes.
func landPayloads() map[int][]byte {
	rng := rand.New(rand.NewSource(55))
	payloads := map[int][]byte{}
	for _, n := range landSizes {
		p := make([]byte, n)
		rng.Read(p)
		payloads[n] = p
	}
	return payloads
}

// landedSumErr reports a body whose landing sum is not the CRC32C of its
// bytes. An empty body lands nothing and carries no sum.
func landedSumErr(b fuzzBulk) error {
	want := crc32.Checksum(b.Data, castagnoli)
	if b.summed != (len(b.Data) > 0) || b.summed && b.sum != want {
		return fmt.Errorf("%d-byte body landed with summed=%v sum %08x, want the sum %08x",
			len(b.Data), b.summed, b.sum, want)
	}
	return nil
}

// Each destination a body can land in: a pooled buffer and a slot for a
// call, and a pooled buffer, a CallInto destination and a slot for a
// reply.
func TestLandedBulkCarriesItsSum(t *testing.T) {
	registerFuzzBlob()
	payloads := landPayloads()
	eachTransport(t, func(t *testing.T, clock simclock.Clock, net Network, addr string) {
		l, err := net.Listen(addr)
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		stored, pulled := bufpool.NewArena(), bufpool.NewArena()
		defer stored.Close()
		defer pulled.Close()
		srv := NewServer(clock)
		srv.Handle("put", func(arg any) (any, error) {
			b := arg.(fuzzBulk)
			defer bufpool.Put(b.Data)
			if !b.pooled {
				return nil, fmt.Errorf("call body did not land in a pooled buffer")
			}
			return fuzzBlob{}, landedSumErr(b)
		})
		srv.HandleInto("putSlot", func(arg any) (any, error) {
			b := arg.(fuzzBulk)
			if b.slot == nil {
				return nil, fmt.Errorf("call body did not land in a slot")
			}
			defer b.slot.Release()
			return fuzzBlob{}, landedSumErr(b)
		}, stored.Alloc)
		srv.Handle("get", func(arg any) (any, error) {
			n, _ := strconv.Atoi(arg.(fuzzBlob).Tag)
			return fuzzBulk{Tag: "r", Data: payloads[n]}, nil
		})
		srv.ServeBackground(l)
		defer srv.Close()
		c, err := Dial(clock, net, l.Addr(), WithCallTimeout(10*time.Second))
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()

		for _, n := range landSizes {
			for _, method := range []string{"put", "putSlot"} {
				if _, err := c.Call(method, fuzzBulk{Tag: "p", Data: payloads[n]}); err != nil {
					t.Errorf("%s of %d bytes: %v", method, n, err)
				}
			}
			get := fuzzBlob{Tag: strconv.Itoa(n)}
			check := func(kind string, b fuzzBulk, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s reply of %d bytes: %v", kind, n, err)
				}
				if !bytes.Equal(b.Data, payloads[n]) {
					t.Errorf("%s reply of %d bytes: wrong bytes", kind, n)
				}
				if err := landedSumErr(b); err != nil {
					t.Errorf("%s reply: %v", kind, err)
				}
			}
			b, err := CallInto[fuzzBulk](c, "get", get, nil)
			check("pooled", b, err)
			if !b.pooled {
				t.Errorf("reply of %d bytes did not land in a pooled buffer", n)
			}
			bufpool.Put(b.Data)
			dst := make([]byte, n)
			b, err = CallInto[fuzzBulk](c, "get", get, dst)
			check("CallInto", b, err)
			if &b.Data[0] != &dst[0] {
				t.Errorf("reply of %d bytes did not land in its CallInto destination", n)
			}
			b, err = CallIntoSlot[fuzzBulk](c, "get", get, pulled.Alloc)
			check("slot", b, err)
			if b.slot == nil {
				t.Fatalf("reply of %d bytes did not land in a slot", n)
			}
			b.slot.Release()
		}
	})
}

// oneByteConn serves a canned stream one byte per Read, the most a
// socket may split a body.
type oneByteConn struct {
	net.Conn // nil: a receiving tcpConn calls only Read and Close
	r        io.Reader
}

func (c oneByteConn) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), 1)]) }
func (c oneByteConn) Close() error               { return nil }

// A stream that yields one byte per Read lands each body whole, with
// the same sum.
func TestTCPLandsOneByteReadsSummed(t *testing.T) {
	registerFuzzBlob()
	head, _ := appendBulkUnitHead(nil, &Message{ID: 1, Method: "m", Body: fuzzBulk{Tag: "t"}},
		mustLookupFramer(t, fuzzBulk{}))
	for n, payload := range landPayloads() {
		conn := newTCPConn(oneByteConn{r: bytes.NewReader(bulkUnit(head, payload, len(head), n))})
		m, err := conn.Recv()
		if err != nil {
			t.Fatalf("Recv of %d bytes: %v", n, err)
		}
		b := m.Body.(fuzzBulk)
		if !bytes.Equal(b.Data, payload) {
			t.Errorf("%d-byte body landed wrong", n)
		}
		if err := landedSumErr(b); err != nil {
			t.Error(err)
		}
		bufpool.Put(b.Data)
	}
}

// A body cut off mid-payload, after more than one whole chunk, reports
// no sum and gives its buffer back. The mark trick of
// TestTCPRecvBulkFailureReturnsBuffer finds the buffer.
func TestTCPCutBodyReportsNoSum(t *testing.T) {
	const size = 3 * landChunk
	sent := bytes.Repeat([]byte{0xC3}, landChunk+landChunk/2)
	b := Bulk{Data: make([]byte, size)}
	if err := b.land(bytes.NewReader(sent)); err == nil || b.Summed || b.Sum != 0 {
		t.Errorf("a cut body landed with err %v, Summed=%v, Sum %08x; want an error and no sum", err, b.Summed, b.Sum)
	}

	registerFuzzBlob()
	head, _ := appendBulkUnitHead(nil, &Message{ID: 1, Method: "m", Body: fuzzBulk{Tag: "t"}},
		mustLookupFramer(t, fuzzBulk{}))
	stream := bulkUnit(head, sent, len(head), size)
	for attempt := 0; attempt < 20; attempt++ {
		conn := newTCPConn(oneByteConn{r: bytes.NewReader(stream)})
		if _, err := conn.Recv(); err == nil {
			t.Fatal("Recv accepted a body cut off mid-payload")
		}
		if got := bufpool.Get(size); got[0] == 0xC3 && got[len(sent)-1] == 0xC3 {
			return
		}
	}
	t.Error("the buffer of the cut body never came back to the pool")
}
