package dfs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/transport"
)

// ReaderVerifies decides whether the datanode checks a block before
// serving it, so the bit must survive every way a request can cross the
// wire: framed or gob on either side, set or clear, beside Local or not.
func TestReadBlockReqCarriesReaderVerifies(t *testing.T) {
	RegisterWire()
	clock := simclock.NewReal()
	for _, wire := range []struct {
		name                   string
		clientFast, serverFast bool
	}{
		{"fast_to_fast", true, true},
		{"fast_to_gob", true, false},
		{"gob_to_fast", false, true},
		{"gob_to_gob", false, false},
	} {
		t.Run(wire.name, func(t *testing.T) {
			snet := transport.NewTCPNetwork(transport.WithTCPFastPath(wire.serverFast))
			cnet := transport.NewTCPNetwork(transport.WithTCPFastPath(wire.clientFast))
			l, err := snet.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			defer l.Close()
			srv := transport.NewServer(clock)
			srv.Handle("echo", func(arg any) (any, error) { return arg, nil })
			srv.ServeBackground(l)
			defer srv.Close()
			c, err := transport.Dial(clock, cnet, l.Addr(), transport.WithCallTimeout(30*time.Second))
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()
			for _, sent := range []ReadBlockReq{
				{Block: 9, Job: "j"},
				{Block: 9, Job: "j", Local: true},
				{Block: 9, Job: "j", ReaderVerifies: true},
				{Block: 9, Local: true, ReaderVerifies: true},
			} {
				got, err := transport.Call[ReadBlockReq](c, "echo", sent)
				if err != nil {
					t.Fatalf("Call(%+v): %v", sent, err)
				}
				if got != sent {
					t.Errorf("request changed on the wire: %+v -> %+v", sent, got)
				}
			}
		})
	}
}

// A frame from a newer sender may set flag bits this decoder has no name
// for; it must still decode, reading the bits it knows.
func TestReadBlockReqFrameIgnoresUnknownFlags(t *testing.T) {
	const flagsAt = 1 // block 9 is a one-byte uvarint
	for name, want := range map[string]ReadBlockReq{
		"none_known": {Block: 9, Job: "j"},
		"all_known":  {Block: 9, Job: "j", Local: true, ReaderVerifies: true},
	} {
		frame := want.AppendFrame(nil)
		for _, unknown := range []byte{0x04, 0x80, 0xfc} {
			t.Run(fmt.Sprintf("%s/%#x", name, unknown), func(t *testing.T) {
				b := append([]byte(nil), frame...)
				b[flagsAt] |= unknown
				var got ReadBlockReq
				if err := got.DecodeFrame(b); err != nil {
					t.Fatalf("DecodeFrame: %v", err)
				}
				if got != want {
					t.Errorf("decoded %+v, want %+v", got, want)
				}
			})
		}
	}
}
