package dfs

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/transport"
)

// wireSamples returns one value of every type RegisterWire registers,
// with every exported field set (TestWireSamplesSetEveryField).
func wireSamples() []any {
	now := time.Date(2020, 1, 1, 0, 0, 0, 5, time.UTC)
	lb := LocatedBlock{
		Block: Block{ID: 7, Size: 99}, Offset: 4, Nodes: []string{"a", "b"},
		Tiers: []Tier{TierRAM, TierSSD}, Assigned: "a", Checksum: 0xdeadbeef,
	}
	info := FileInfo{Path: "/f", Size: 9, BlockSize: 3, Replication: 2, Complete: true}
	data := []byte("xy")
	return []any{
		CreateReq{Path: "/f", BlockSize: 64 << 20, Replication: 3},
		CreateResp{},
		AddBlocksReq{Path: "/f", Sizes: []int64{123, 456}, ReqID: 5, Checksums: []uint32{1, 0xffffffff}},
		AddBlocksResp{Located: []LocatedBlock{lb, {Block: Block{ID: 8, Size: 1}, Offset: 103,
			Nodes: []string{"c"}, Tiers: []Tier{TierSSD}, Assigned: "c", Checksum: 1}}},
		RetargetBlockReq{Path: "/f", Block: 7, Exclude: []string{"c", "d"}},
		RetargetBlockResp{Located: lb},
		CompleteReq{Path: "/f"},
		CompleteResp{},
		GetInfoReq{Path: "/f"},
		GetInfoResp{Info: info},
		GetLocationsReq{Path: "/f", Job: "j", Offset: 64 << 20, Length: 1},
		GetLocationsResp{Blocks: []LocatedBlock{lb}},
		DeleteReq{Path: "/f"},
		DeleteResp{},
		ListReq{Prefix: "/"},
		ListResp{Files: []FileInfo{info, {Path: "/g", Size: 1, BlockSize: 1, Replication: 1, Complete: true}}},
		MigrateReq{Job: "j", Paths: []string{"/f", "/g"}, Implicit: true, SubmitTime: now},
		MigrateResp{Blocks: 2, Bytes: 128},
		EvictReq{Job: "j", Paths: []string{"/f"}},
		EvictResp{Blocks: 3},
		BlockReadReq{Job: "j", Blocks: []BlockID{4, 2}},
		BlockReadResp{},
		RegisterReq{Addr: "dn", Blocks: []BlockID{1, 5}, Seq: 1, Epoch: 2},
		RegisterResp{},
		HeartbeatReq{Addr: "dn", Pinned: []BlockID{1}, Unpinned: []BlockID{2}, Seq: 3, Epoch: 4,
			Added: []BlockID{5}, Removed: []BlockID{6}, SSDPinned: []BlockID{7}, SSDUnpinned: []BlockID{8}},
		HeartbeatResp{NeedFullReport: true},
		CorruptReplicaReq{Addr: "dn", Block: 9},
		CorruptReplicaResp{},
		EpochReq{},
		EpochResp{Epoch: 6},
		WriteBlockReq{Block: Block{ID: 3, Size: 2}, Data: data, Pipeline: []string{"dn1"}, Checksum: Checksum(data)},
		WriteBlockResp{},
		ReadBlockReq{Block: 3, Job: "j", Local: true, ReaderVerifies: true},
		ReadBlockResp{Data: data, Size: 2, FromMemory: true, Local: true},
		VerifyBlockReq{Block: 3},
		VerifyBlockResp{},
		PullBlockReq{Block: Block{ID: 3, Size: 2}, From: "dn2"},
		PullBlockResp{},
		DeleteBlocksReq{Blocks: []BlockID{1, 2}},
		DeleteBlocksResp{},
		MigrateBatch{Epoch: 9, Cmds: []MigrateCmd{
			{Block: Block{ID: 1, Size: 2}, Job: "j", JobInputSize: 10, SubmitTime: now, Implicit: true, Checksum: 5, Tier: TierRAM},
			{Block: Block{ID: 2, Size: 3}, Job: "k", JobInputSize: 1, SubmitTime: now.Add(time.Second), Implicit: true,
				Checksum: 6, Tier: TierSSD},
		}},
		MigrateBatchResp{},
		EvictBatch{Epoch: 9, Cmds: []EvictCmd{{Block: 1, Job: "j"}}},
		EvictBatchResp{},
		ReadNotifyBatch{Epoch: 9, Cmds: []ReadNotifyCmd{{Block: 1, Job: "j"}}},
		ReadNotifyBatchResp{},
	}
}

var timeType = reflect.TypeFor[time.Time]()

// firstZero returns the path of the first exported field under v that
// is zero (an empty list counts), or "" when every one is set.
func firstZero(v reflect.Value, path string) string {
	switch {
	case v.Type() == timeType:
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				if p := firstZero(v.Field(i), path+"."+f.Name); p != "" {
					return p
				}
			}
		}
		return ""
	case v.Kind() == reflect.Slice && v.Len() > 0:
		for i := 0; i < v.Len(); i++ {
			if p := firstZero(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
		return ""
	}
	if v.IsZero() {
		return path
	}
	return ""
}

// wireEqual compares what crosses the wire: exported fields, with times
// compared by Equal (the frame does not carry a location).
func wireEqual(a, b reflect.Value) bool {
	switch {
	case a.Type() != b.Type():
		return false
	case a.Type() == timeType:
		return a.Interface().(time.Time).Equal(b.Interface().(time.Time))
	case a.Kind() == reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() && !wireEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case a.Kind() == reflect.Slice:
		if a.Len() != b.Len() || a.IsNil() != b.IsNil() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !wireEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// A field added to a wire struct but not to its sample fails here, and
// then in TestWireRoundTrip until its frame carries it.
func TestWireSamplesSetEveryField(t *testing.T) {
	for _, s := range wireSamples() {
		if p := firstZero(reflect.ValueOf(s), fmt.Sprintf("%T", s)); p != "" {
			t.Errorf("sample field %s is zero: set it so the round trip checks it", p)
		}
	}
}

// TestWireRoundTrip sends one sample of every registered wire type
// through a TCP echo server, so each crosses the frame codec as a
// request and as a reply, and checks every field survives.
func TestWireRoundTrip(t *testing.T) {
	samples := map[reflect.Type]any{}
	for _, s := range wireSamples() {
		samples[reflect.TypeOf(s)] = s
	}
	if len(samples) != len(wireTypes) {
		t.Errorf("%d sample types for %d registered wire types", len(samples), len(wireTypes))
	}
	c := dialEcho(t)
	for _, typ := range wireTypes {
		sent, ok := samples[typ]
		if !ok {
			t.Errorf("registered wire type %v has no sample in wireSamples", typ)
			continue
		}
		got, err := c.Call("echo", sent)
		if err != nil {
			t.Errorf("%v: %v", typ, err)
			continue
		}
		if !wireEqual(reflect.ValueOf(sent), reflect.ValueOf(got)) {
			t.Errorf("%v changed on the wire:\n sent %+v\n got  %+v", typ, sent, got)
		}
	}
}

// dialEcho serves "echo" (the decoded request comes back as the reply)
// over TCP loopback and returns a client for it.
func dialEcho(t testing.TB) *transport.Client {
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

func TestWireSizes(t *testing.T) {
	// Bulk payloads charge the network for their real size; local reads
	// and control messages charge a nominal size.
	if got := (WriteBlockReq{Block: Block{Size: 1000}}).WireSize(); got != 1000 {
		t.Errorf("synthetic write wire size = %d", got)
	}
	if got := (WriteBlockReq{Block: Block{Size: 1000}, Data: make([]byte, 50)}).WireSize(); got != 50 {
		t.Errorf("real write wire size = %d", got)
	}
	if got := (ReadBlockResp{Size: 1 << 20}).WireSize(); got != 1<<20 {
		t.Errorf("remote read wire size = %d", got)
	}
	if got := (ReadBlockResp{Size: 1 << 20, Local: true}).WireSize(); got != 256 {
		t.Errorf("local read wire size = %d", got)
	}
	if got := (ReadBlockResp{Data: make([]byte, 77)}).WireSize(); got != 77 {
		t.Errorf("real read wire size = %d", got)
	}
}

func TestRegisterWireIdempotent(t *testing.T) {
	RegisterWire()
	RegisterWire() // must not panic on duplicate registration
}
