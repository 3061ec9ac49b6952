package dfs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/transport"
)

// TestBulkMessagesRoundTripOverTCP sends both payload-carrying messages
// through a real TCP connection and back (an echo server, so each size
// crosses the wire as a request and as a reply) at the sizes where the
// framing or the pool changes behaviour: no payload (a synthetic block),
// one byte, either side of the smallest pool class, the largest head,
// a whole block, and one byte more. Both travel as bulk units.
func TestBulkMessagesRoundTripOverTCP(t *testing.T) {
	sizes := []int{0, 1, 511, 512, 64 << 10, 4 << 20, 4<<20 + 1}
	c := echoClient(t)

	// Both ends frame registered bodies (fast_to_fast), the one wire
	// configuration a TCP conn has.
	t.Run("fast_to_fast", func(t *testing.T) {
		for _, n := range sizes {
			var data []byte
			if n > 0 {
				data = fuzzBlockBytes(n)
			}
			// The reply is pooled exactly when it has bytes in it.
			wantPooled := n > 0

			t.Run(fmt.Sprintf("WriteBlockReq/%d", n), func(t *testing.T) {
				sent := WriteBlockReq{
					Block: Block{ID: 42, Size: int64(n)}, Data: data,
					Pipeline: []string{"dn1:9000", "dn2:9000"}, Checksum: Checksum(data),
				}
				got, err := transport.Call[WriteBlockReq](c, "echo", sent)
				if err != nil {
					t.Fatalf("Call: %v", err)
				}
				if got.Block != sent.Block || got.Checksum != sent.Checksum || !reflect.DeepEqual(got.Pipeline, sent.Pipeline) {
					t.Errorf("head changed: %+v -> %+v", sent.Block, got.Block)
				}
				checkBulk(t, got.Data, data)
				checkLanded(t, got.sum, got.DataSum(), data)
				got.Release()
				if got.Data != nil {
					t.Error("Release did not give the buffer up")
				}
			})
			t.Run(fmt.Sprintf("ReadBlockResp/%d", n), func(t *testing.T) {
				sent := ReadBlockResp{Data: data, Size: int64(n), FromMemory: true, Local: n%2 == 1}
				got, err := transport.Call[ReadBlockResp](c, "echo", sent)
				if err != nil {
					t.Fatalf("Call: %v", err)
				}
				if got.Size != sent.Size || got.FromMemory != sent.FromMemory || got.Local != sent.Local {
					t.Errorf("head changed: %+v -> %+v", sent.Size, got.Size)
				}
				checkBulk(t, got.Data, data)
				checkLanded(t, got.sum, got.DataSum(), data)
				if got.Pooled() != wantPooled {
					t.Errorf("Pooled() = %v, want %v", got.Pooled(), wantPooled)
				}
				got.Release()
			})
		}
	})
}

// echoClient returns a client of a TCP loopback server whose "echo"
// method replies with its argument.
func echoClient(t *testing.T) *transport.Client {
	t.Helper()
	clock := simclock.NewReal()
	tnet := transport.NewTCPNetwork()
	l, err := tnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := transport.NewServer(clock)
	srv.Handle("echo", func(arg any) (any, error) { return arg, nil })
	srv.ServeBackground(l)
	c, err := transport.Dial(clock, tnet, l.Addr(), transport.WithCallTimeout(30*time.Second))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close(); srv.Close(); l.Close() })
	return c
}

// checkLanded fails unless a decoded body's payload was summed as it
// landed, and DataSum reports that sum: Checksum(want) for a payload,
// and 0 for none.
func checkLanded(t *testing.T, landed landedSum, dataSum uint32, want []byte) {
	t.Helper()
	if landed.sum != Checksum(want) || dataSum != Checksum(want) {
		t.Errorf("%d-byte payload: landed sum %08x, DataSum %08x, want %08x", len(want), landed.sum, dataSum, Checksum(want))
	}
}

func checkBulk(t *testing.T, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("payload changed: sent %d bytes, got %d", len(want), len(got))
	}
	if len(want) == 0 && got != nil {
		t.Errorf("an empty payload decoded to a non-nil slice of cap %d", cap(got))
	}
}

// The whole-frame methods and the head/bulk pair describe one layout:
// a frame is the head followed by the length-prefixed bulk, and decoding
// a frame leaves it intact for the caller to decode again.
func TestWholeFrameIsHeadThenBulk(t *testing.T) {
	type bulkMessage interface {
		transport.BulkFramer
		Release()
	}
	data := fuzzBlockBytes(1000)
	for _, tc := range []struct {
		name  string
		sent  bulkMessage
		fresh func() bulkMessage
	}{
		{"WriteBlockReq",
			&WriteBlockReq{Block: Block{ID: 3, Size: 1000}, Data: data, Pipeline: []string{"a:1"}, Checksum: 9},
			func() bulkMessage { return new(WriteBlockReq) }},
		{"ReadBlockResp",
			&ReadBlockResp{Data: data, Size: 1000, FromMemory: true},
			func() bulkMessage { return new(ReadBlockResp) }},
	} {
		frame := tc.sent.AppendFrame(nil)
		head := tc.sent.AppendHead(nil)
		if !bytes.HasPrefix(frame, head) {
			t.Errorf("%s: frame does not begin with the head", tc.name)
		}
		if tail := frame[len(head):]; !bytes.HasSuffix(tail, data) || len(tail) != len(data)+2 {
			t.Errorf("%s: frame tail is %d bytes, want a 2-byte length and the %d payload bytes", tc.name, len(tail), len(data))
		}
		before := append([]byte(nil), frame...)
		for i := 0; i < 2; i++ {
			got := tc.fresh()
			if err := got.DecodeFrame(frame); err != nil {
				t.Fatalf("%s: DecodeFrame: %v", tc.name, err)
			}
			if !bytes.Equal(got.Bulk(), data) {
				t.Errorf("%s: decode %d lost the payload", tc.name, i)
			}
			got.Release()
		}
		if !bytes.Equal(frame, before) {
			t.Errorf("%s: DecodeFrame changed the caller's frame", tc.name)
		}
	}
}
