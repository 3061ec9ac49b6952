package dfs

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestWireRoundTrip gob-encodes every RPC message the way the TCP
// transport does and checks nothing is lost — catching both unregistered
// types and unencodable fields.
func TestWireRoundTrip(t *testing.T) {
	RegisterWire()
	now := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	bodies := []any{
		CreateReq{Path: "/f", BlockSize: 64 << 20, Replication: 3},
		CreateResp{},
		AddBlocksReq{Path: "/f", Sizes: []int64{123, 456}, Exclude: []string{"c"}, ReqID: 5, Checksums: []uint32{1, 2}},
		AddBlocksResp{Located: []LocatedBlock{{
			Block: Block{ID: 7, Size: 99}, Offset: 4,
			Nodes: []string{"a", "b"}, Migrated: []string{"a"}, Assigned: "a",
		}}},
		CompleteReq{Path: "/f"},
		GetInfoReq{Path: "/f"},
		GetInfoResp{Info: FileInfo{Path: "/f", Size: 9, BlockSize: 3, Replication: 2, Complete: true}},
		GetLocationsReq{Path: "/f", Job: "j", Offset: 64 << 20, Length: 1},
		GetLocationsResp{Blocks: []LocatedBlock{{Block: Block{ID: 1, Size: 2}}}},
		DeleteReq{Path: "/f"},
		ListReq{Prefix: "/"},
		ListResp{Files: []FileInfo{{Path: "/f"}}},
		MigrateReq{Job: "j", Paths: []string{"/f"}, Implicit: true, SubmitTime: now},
		MigrateResp{Blocks: 2, Bytes: 128},
		EvictReq{Job: "j", Paths: []string{"/f"}},
		RegisterReq{Addr: "dn"},
		HeartbeatReq{Addr: "dn", PinnedBytes: 5, Pinned: []BlockID{1}, Unpinned: []BlockID{2}},
		WriteBlockReq{Block: Block{ID: 3, Size: 4}, Data: []byte("xy"), Pipeline: []string{"dn1"}, EagerPipeline: true},
		ReadBlockReq{Block: 3, Job: "j", Local: true, ReaderVerifies: true},
		ReadBlockResp{Data: []byte("xy"), Size: 2, FromMemory: true, Local: true},
		DeleteBlocksReq{Blocks: []BlockID{1, 2}},
		VerifyBlockReq{Block: 3},
		VerifyBlockResp{},
		MigrateBatch{Epoch: 9, Cmds: []MigrateCmd{{
			Block: Block{ID: 1, Size: 2}, Job: "j", JobInputSize: 10, SubmitTime: now, Implicit: true, Tier: TierRAM,
		}}},
		EvictBatch{Epoch: 9, Cmds: []EvictCmd{{Block: 1, Job: "j"}}},
	}
	for _, body := range bodies {
		msg := transport.Message{ID: 1, Method: "m", Body: body}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&msg); err != nil {
			t.Errorf("encode %T: %v", body, err)
			continue
		}
		var got transport.Message
		if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
			t.Errorf("decode %T: %v", body, err)
			continue
		}
	}
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
