package datanode

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/namenode"
	"repro/internal/simclock"
)

// storeBlock writes one real 4 KiB block and returns its bytes.
func storeBlock(t *testing.T, dn *DataNode, id dfs.BlockID) []byte {
	t.Helper()
	data := bytes.Repeat([]byte{byte(id), 0x5a}, 2048)
	if _, err := dn.handleWriteBlock(dfs.WriteBlockReq{Block: dfs.Block{ID: id, Size: int64(len(data))}, Data: data}); err != nil {
		t.Fatalf("write block %d: %v", id, err)
	}
	return data
}

// corruptReports lets the datanode's off-path report land, then reads the
// namenode's count.
func corruptReports(v *simclock.Virtual, nn *namenode.NameNode) int64 {
	v.Sleep(time.Second)
	return nn.Stats().CorruptReports
}

// Who verifies a served block is decided by the request, and only by it:
// for a reader that says it verifies, the datanode runs no check — shown
// without a clock by the rotten bytes coming back and the replica staying
// put — and for any other reader it checks before serving, as before.
func TestReadBlockVerifiesUnlessReaderDoes(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{})
		defer nn.Close()
		defer dn.Close()
		data := storeBlock(t, dn, 1)
		if !dn.CorruptReplica(1) {
			t.Fatal("CorruptReplica(1) = false")
		}

		resp, err := dn.handleReadBlock(dfs.ReadBlockReq{Block: 1, ReaderVerifies: true})
		if err != nil {
			t.Fatalf("read by a verifying reader: %v", err)
		}
		if len(resp.Data) != len(data) || bytes.Equal(resp.Data, data) {
			t.Error("a verifying reader should get the stored bytes as they are, rot included")
		}
		if dn.store.Len() != 1 {
			t.Error("replica dropped on a read the datanode was told not to verify")
		}
		if got := corruptReports(v, nn); got != 0 {
			t.Errorf("CorruptReports = %d after an unverified serve, want 0", got)
		}

		if _, err := dn.handleReadBlock(dfs.ReadBlockReq{Block: 1}); !errors.Is(err, dfs.ErrChecksum) {
			t.Fatalf("read by a non-verifying reader: err = %v, want dfs.ErrChecksum", err)
		}
		if dn.store.Len() != 0 {
			t.Error("rotten replica still stored after the datanode's own check failed")
		}
		if got := corruptReports(v, nn); got != 1 {
			t.Errorf("CorruptReports = %d, want 1", got)
		}
	})
}

// dn.verifyBlock is the holder's own judgement of one replica: rot at
// rest is dropped and reported once, a healthy replica is left alone
// whatever the asker saw, and a block the datanode does not hold is not
// an event.
func TestVerifyBlock(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		nn, dn := startPair(t, v, Config{})
		defer nn.Close()
		defer dn.Close()
		storeBlock(t, dn, 1)
		healthy := storeBlock(t, dn, 2)
		if !dn.CorruptReplica(1) {
			t.Fatal("CorruptReplica(1) = false")
		}

		for _, id := range []dfs.BlockID{2, 99} {
			if _, err := dn.handleVerifyBlock(dfs.VerifyBlockReq{Block: id}); err != nil {
				t.Fatalf("verify block %d: %v", id, err)
			}
		}
		if n := dn.store.Len(); n != 2 {
			t.Fatalf("%d replicas after verifying a healthy and an unknown block, want 2", n)
		}
		if got := corruptReports(v, nn); got != 0 {
			t.Errorf("CorruptReports = %d, want 0", got)
		}

		// Asked twice, as two readers that hit the same rot would: the
		// second finds nothing to judge.
		for i := 0; i < 2; i++ {
			if _, err := dn.handleVerifyBlock(dfs.VerifyBlockReq{Block: 1}); err != nil {
				t.Fatalf("verify rotten block: %v", err)
			}
		}
		if _, err := dn.handleReadBlock(dfs.ReadBlockReq{Block: 1, ReaderVerifies: true}); err == nil {
			t.Error("rotten replica still served after dn.verifyBlock")
		}
		if got := corruptReports(v, nn); got != 1 {
			t.Errorf("CorruptReports = %d, want 1", got)
		}
		resp, err := dn.handleReadBlock(dfs.ReadBlockReq{Block: 2})
		if err != nil || !bytes.Equal(resp.Data, healthy) {
			t.Errorf("healthy neighbour after the drop: err %v", err)
		}
	})
}
