package dfs

import (
	"testing"
)

// Round-trip and fuzz coverage for the control-plane report frames. The
// ID lists are delta-encoded, so the tests cover sorted (the senders'
// shape), unsorted (wraparound deltas), empty, and truncated inputs.

func idsEqual(a, b []BlockID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestHeartbeatReqFrameRoundTrip(t *testing.T) {
	cases := []HeartbeatReq{
		{},
		{Addr: "dn1:9000", Seq: 17, Epoch: 3},
		{
			Addr:        "dn-042",
			Seq:         ^uint64(0),
			Epoch:       42,
			Pinned:      []BlockID{1, 2, 3},
			Unpinned:    []BlockID{9, 10},
			Added:       []BlockID{100, 101, 105, 1 << 40},
			Removed:     []BlockID{7},
			SSDPinned:   []BlockID{11, 12},
			SSDUnpinned: []BlockID{13},
		},
		// Unsorted lists must still round-trip (delta wraps).
		{Addr: "x", Added: []BlockID{50, 10, 90, 10}},
	}
	for i, in := range cases {
		enc := in.AppendFrame(nil)
		var out HeartbeatReq
		if err := out.DecodeFrame(enc); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if out.Addr != in.Addr ||
			out.Seq != in.Seq || out.Epoch != in.Epoch ||
			!idsEqual(out.Pinned, in.Pinned) || !idsEqual(out.Unpinned, in.Unpinned) ||
			!idsEqual(out.Added, in.Added) || !idsEqual(out.Removed, in.Removed) ||
			!idsEqual(out.SSDPinned, in.SSDPinned) || !idsEqual(out.SSDUnpinned, in.SSDUnpinned) {
			t.Fatalf("case %d: round trip changed request:\n in  %+v\n out %+v", i, in, out)
		}
	}
}

func TestRegisterReqFrameRoundTrip(t *testing.T) {
	ids := make([]BlockID, 10000)
	for i := range ids {
		ids[i] = BlockID(i*3 + 1)
	}
	cases := []RegisterReq{
		{},
		{Addr: "dn7:9000", Seq: 99, Epoch: 5, Blocks: ids},
	}
	for i, in := range cases {
		enc := in.AppendFrame(nil)
		var out RegisterReq
		if err := out.DecodeFrame(enc); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if out.Addr != in.Addr || out.Seq != in.Seq || out.Epoch != in.Epoch ||
			!idsEqual(out.Blocks, in.Blocks) {
			t.Fatalf("case %d: round trip changed request", i)
		}
	}
	// Sorted dense IDs should cost ~1-2 bytes each, far under the 8-byte
	// fixed encoding — the point of delta encoding the register snapshot.
	enc := cases[1].AppendFrame(nil)
	if got, max := len(enc), 3*len(ids); got > max {
		t.Fatalf("full report frame too large: %d bytes for %d ids (max %d)", got, len(ids), max)
	}
}

func TestReportFrameTruncated(t *testing.T) {
	in := HeartbeatReq{Addr: "dn1", Seq: 5, Epoch: 1, Added: []BlockID{1, 2, 3}}
	enc := in.AppendFrame(nil)
	for cut := 0; cut < len(enc); cut++ {
		var out HeartbeatReq
		if err := out.DecodeFrame(enc[:cut]); err == nil {
			t.Fatalf("decode of %d/%d-byte truncation unexpectedly succeeded", cut, len(enc))
		}
	}
	reg := RegisterReq{Addr: "dn1", Seq: 5, Epoch: 1, Blocks: []BlockID{1, 2, 3}}
	renc := reg.AppendFrame(nil)
	for cut := 0; cut < len(renc); cut++ {
		var out RegisterReq
		if err := out.DecodeFrame(renc[:cut]); err == nil {
			t.Fatalf("decode of %d/%d-byte truncation unexpectedly succeeded", cut, len(renc))
		}
	}
}

func FuzzHeartbeatReqFrame(f *testing.F) {
	empty := HeartbeatReq{}
	f.Add(empty.AppendFrame(nil))
	full := HeartbeatReq{
		Addr: "dn1:9000", Seq: 7, Epoch: 2,
		Pinned: []BlockID{1}, Unpinned: []BlockID{2},
		Added: []BlockID{3, 4}, Removed: []BlockID{5},
		SSDPinned: []BlockID{6}, SSDUnpinned: []BlockID{7},
	}
	enc := full.AppendFrame(nil)
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		var r HeartbeatReq
		if err := r.DecodeFrame(data); err != nil {
			return
		}
		re := r.AppendFrame(nil)
		var r2 HeartbeatReq
		if err := r2.DecodeFrame(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if r2.Addr != r.Addr ||
			r2.Seq != r.Seq || r2.Epoch != r.Epoch ||
			!idsEqual(r2.Pinned, r.Pinned) || !idsEqual(r2.Unpinned, r.Unpinned) ||
			!idsEqual(r2.Added, r.Added) || !idsEqual(r2.Removed, r.Removed) ||
			!idsEqual(r2.SSDPinned, r.SSDPinned) || !idsEqual(r2.SSDUnpinned, r.SSDUnpinned) {
			t.Fatalf("round trip changed request")
		}
	})
}
