package main

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/dfs"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// tracedPair serves "echo" (a gob-coded control message comes back as
// it went) and "block" (a 4 MiB block reply) over TCP loopback, with
// both ends dialing and listening through the tracer's network.
func tracedPair(t *testing.T, tr *tracer, block []byte) *transport.Client {
	t.Helper()
	dfs.RegisterWire()
	clock := simclock.NewReal()
	base := transport.NewTCPNetwork()
	l, err := tr.net("dn0", base).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(clock)
	srv.Handle("echo", func(arg any) (any, error) { return arg, nil })
	srv.Handle("block", func(any) (any, error) {
		return dfs.ReadBlockResp{Data: block, Size: int64(len(block)), FromMemory: true}, nil
	})
	srv.ServeBackground(l)
	c, err := transport.Dial(clock, tr.net(clientNode, base), l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		l.Close()
	})
	return c
}

func TestTracedNetPassesMessagesThroughUnchanged(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	c := tracedPair(t, tr, nil)
	sent := dfs.GetLocationsReq{Path: "/a/b", Job: "job-7"}
	got, err := transport.Call[dfs.GetLocationsReq](c, "echo", sent)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sent) {
		t.Errorf("echoed %+v, sent %+v", got, sent)
	}
}

func TestTracedNetKeepsFastPathAndBufferOwnership(t *testing.T) {
	block := make([]byte, 4<<20)
	fillPayload(block, 42)
	tr := newTracer()
	tr.on.Store(true)
	c := tracedPair(t, tr, block)

	resp, err := transport.Call[dfs.ReadBlockResp](c, "block", dfs.ReadBlockReq{Block: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Only the binary fast path decodes into a pooled buffer; a reply
	// that fell back to gob would not be pooled.
	if !resp.Pooled() {
		t.Fatal("reply is not pooled: the wrapped conn lost the binary fast path")
	}
	if !bytes.Equal(resp.Data, block) || !resp.FromMemory || resp.Size != int64(len(block)) {
		t.Fatal("reply differs from what the handler returned")
	}
	// The wrapper must not have released the buffer (the bytes above
	// would be another call's by now) and must leave the one release to
	// the owner.
	resp.Release()
	if resp.Pooled() || resp.Data != nil {
		t.Error("Release did not give the buffer up")
	}

	spans, unplaced := assemble(tr.take())
	if len(spans) != 2 || unplaced != 2 {
		t.Fatalf("got %d spans (%d unplaced), want the call's caller and callee side, both rootless", len(spans), unplaced)
	}
	caller, callee := spans[0], spans[1]
	if caller.Side != sideCaller || callee.Side != sideCallee {
		t.Fatalf("sides %s, %s; want caller first (it starts first), then callee", caller.Side, callee.Side)
	}
	if callee.Parent != caller.ID {
		t.Errorf("callee-side span's parent is %d, want the caller-side span %d", callee.Parent, caller.ID)
	}
	if caller.Name != "block" || caller.Layer != layerTransport || caller.Node != clientNode {
		t.Errorf("caller span = %+v", caller)
	}
	if callee.Node != "dn0" || callee.Start < caller.Start || callee.End > caller.End {
		t.Errorf("callee span %+v not inside caller span %+v", callee, caller)
	}
	if caller.Bytes != int64(len(block)) {
		t.Errorf("caller span carries %d bulk bytes, want %d", caller.Bytes, len(block))
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer()
	c := tracedPair(t, tr, nil)
	if _, err := transport.Call[dfs.GetLocationsReq](c, "echo", dfs.GetLocationsReq{Path: "/x"}); err != nil {
		t.Fatal(err)
	}
	ran := false
	tr.root("op", func() { ran = true })
	if !ran {
		t.Error("root did not run its function")
	}
	if spans := tr.take(); len(spans) != 0 {
		t.Errorf("recorded %d spans while off", len(spans))
	}
}
