package transport

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/simclock"
)

// Slots on both transports: a call to a HandleInto method lands its bulk
// bytes in a slot from the method's allocator, from a conn's first
// message on; a reply body that holds a slot reference has it released
// once the reply is sent; CallIntoSlot lands a reply in a slot its body
// then holds.
func TestSlotsLandAndGoBack(t *testing.T) {
	registerFuzzBlob()
	for _, tcp := range []bool{true, false} {
		t.Run(fmt.Sprintf("tcp=%v", tcp), func(t *testing.T) {
			clock := simclock.NewReal()
			var net Network = NewInmemNetwork(clock)
			addr := "srv"
			if tcp {
				net, addr = NewTCPNetwork(), "127.0.0.1:0"
			}
			l, err := net.Listen(addr)
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			stored, pulled := bufpool.NewArena(), bufpool.NewArena()
			var kept *bufpool.Slot
			srv := NewServer(clock)
			srv.HandleInto("put", func(arg any) (any, error) {
				b := arg.(fuzzBulk)
				if b.slot == nil || b.pooled || &b.Data[0] != &b.slot.Bytes()[0] {
					return nil, fmt.Errorf("call body did not land in a slot")
				}
				kept = b.slot // the handler keeps the body's reference
				return fuzzBlob{Tag: "ok"}, nil
			}, stored.Alloc)
			srv.Handle("get", func(any) (any, error) {
				kept.Retain() // the reply's reference, released by the server
				return fuzzBulk{Tag: "r", Data: kept.Bytes(), slot: kept}, nil
			})
			srv.ServeBackground(l)
			defer srv.Close()
			c, err := Dial(clock, net, l.Addr(), WithCallTimeout(10*time.Second))
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()

			payload := filled(3000, 0xA7)
			if _, err := c.Call("put", fuzzBulk{Tag: "p", Data: payload}); err != nil {
				t.Fatalf("put: %v", err)
			}
			if slots, _ := stored.Usage(); slots != 1 {
				t.Fatalf("%d slots held after put, want the stored one", slots)
			}
			body, err := c.CallIntoSlot("get", fuzzBlob{}, pulled.Alloc)
			if err != nil {
				t.Fatalf("get: %v", err)
			}
			got := body.(fuzzBulk)
			if got.slot == nil || !bytes.Equal(got.Data, payload) || &got.Data[0] != &got.slot.Bytes()[0] {
				t.Fatalf("reply did not land in a slot with the stored bytes")
			}
			got.slot.Release()
			if slots, _ := pulled.Usage(); slots != 0 {
				t.Errorf("%d pulled slots held after the reply's release", slots)
			}
			// The server releases the reply's reference after its Send,
			// which may come just after the client has the reply. Usage
			// counts slots, not references, so the stored slot reads as
			// held before and after that release; only once the handler's
			// own reference is gone too does it read 0, and then only
			// after the server's release.
			kept.Release()
			deadline := time.Now().Add(5 * time.Second)
			for slots, _ := stored.Usage(); slots != 0; slots, _ = stored.Usage() {
				if time.Now().After(deadline) {
					t.Fatalf("%d stored slots held after the reply was sent and the handler's reference released, want 0", slots)
				}
				time.Sleep(time.Millisecond)
			}
			stored.Close()
			pulled.Close()
			for _, a := range []*bufpool.Arena{stored, pulled} {
				if slots, chunks := a.Usage(); slots != 0 || chunks != 0 {
					t.Errorf("arena holds %d slots in %d chunks after Close", slots, chunks)
				}
			}
		})
	}
}
