package client

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/dfs/datanode"
	"repro/internal/dfs/namenode"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
)

// eachTransport runs fn over TCP loopback and over the in-memory network.
func eachTransport(t *testing.T, fn func(t *testing.T, tcp bool)) {
	t.Run("tcp", func(t *testing.T) { fn(t, true) })
	t.Run("inmem", func(t *testing.T) { fn(t, false) })
}

// EachTransport is eachTransport for this package's external tests.
var EachTransport = eachTransport

// On either transport every block of a ReadFile lands straight in its
// slot of the result: the response's bytes are the slot itself, the
// response does not claim them for the pool, and releasing it leaves
// them where they are. The blocks go through the calls ReadFile makes,
// one at a time, so each response can be looked at.
func TestReadFileBlocksArriveInTheirSlots(t *testing.T) {
	eachTransport(t, readBlocksIntoSlots)
}

func readBlocksIntoSlots(t *testing.T, tcp bool) {
	clock := simclock.NewScaledReal(4)
	var net transport.Network = transport.NewInmemNetwork(clock)
	if tcp {
		net = transport.Loopback{}
	}
	// Each node listens first; its listener's Addr is its address.
	n := 0
	listen := func() transport.Listener {
		n++
		l, err := net.Listen(fmt.Sprintf("n%d", n))
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		return l
	}
	nl := listen()
	nnAddr := nl.Addr()
	nn := namenode.New(clock, net, namenode.Config{Addr: nnAddr, Seed: 11})
	if err := nn.Serve(nl); err != nil {
		t.Fatalf("namenode serve: %v", err)
	}
	t.Cleanup(nn.Close)
	for i := 0; i < 3; i++ {
		l := listen()
		dn, err := datanode.New(clock, net, datanode.Config{
			Addr: l.Addr(), NameNodeAddr: nnAddr, Media: storage.RAMSpec(), ServeAllFromRAM: true,
		})
		if err != nil {
			t.Fatalf("datanode new: %v", err)
		}
		if err := dn.Serve(l); err != nil {
			t.Fatalf("datanode serve: %v", err)
		}
		t.Cleanup(dn.Close)
	}
	c, err := New(clock, net, nnAddr)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(c.Close)

	// 64 KiB blocks: each slot has exactly a pool class's capacity, so
	// a slot wrongly given to the pool would be handed out again below.
	const blockSize = 64 << 10
	in := make([]byte, 4*blockSize)
	for i := range in {
		in[i] = byte(i*13 + 1)
	}
	if err := c.WriteFile("/slots/f", in, blockSize, 2); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	blocks, err := c.Locations("/slots/f")
	if err != nil {
		t.Fatalf("Locations: %v", err)
	}
	asm := newAssembly(blocks)
	for i, lb := range blocks {
		slot := asm.slot(i)
		if len(slot) != blockSize {
			t.Fatalf("block %d: slot of %d bytes, want %d", i, len(slot), blockSize)
		}
		resp, err := c.readBlockVia("/slots/f", lb, "", c.chooseReplica(lb), slot)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if len(resp.Data) != blockSize || &resp.Data[0] != &slot[0] {
			t.Fatalf("block %d was not received into its slot", i)
		}
		if resp.Pooled() {
			t.Fatalf("block %d: a response borrowing its slot claims it for the pool", i)
		}
		resp.Release()
		if len(resp.Data) != blockSize || &resp.Data[0] != &slot[0] {
			t.Fatalf("block %d: Release dropped the slot", i)
		}
		if b := bufpool.Get(blockSize); &b[0] == &slot[0] {
			t.Fatalf("block %d: Release gave the slot to the pool", i)
		}
		asm.place(i, &resp)
	}
	got, err := asm.result()
	if err != nil || !bytes.Equal(got, in) {
		t.Fatalf("assembled %d bytes, err %v; want the file", len(got), err)
	}
}
