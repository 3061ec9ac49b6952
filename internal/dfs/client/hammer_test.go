package client_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dfs/client"
	"repro/internal/faultnet"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Replica memory is recycled: a delete or an overwrite hands a replica's
// slot back as soon as its last reader is done with it, and the next
// write of that size lands in it. TestReplicaSlotsUnderDeleteAndOverwrite
// hammers that: four readers read files while a writer deletes and
// rewrites them, so serves of a replica race its deletion and the reuse
// of its slot. A serve that gave its reference back before its Send
// returned would send bytes a later write put there (or, in race
// builds, the poison a freed slot is filled with), and the reader's
// end-to-end CRC check would count a failure.
func TestReplicaSlotsUnderDeleteAndOverwrite(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		hammerReplicaSlots(t, startLive(t, tcp, 4))
	})
	// Once more with the datanodes' replies to the clients held and
	// reordered by faultnet, which sends a held reply after the serve's
	// Send returned and its slot reference went back.
	t.Run("inmem-reorder", func(t *testing.T) {
		var fab *faultnet.Fabric
		lc := startLiveVia(t, false, 4, func(clock simclock.Clock, base transport.Network, node string) transport.Network {
			if fab == nil {
				fab = faultnet.New(clock, base, 7)
			}
			return fab.Node(node)
		})
		for _, dn := range lc.DataNodes {
			fab.SetReorder(dn.Addr(), "client", 4)
		}
		hammerReplicaSlots(t, lc)
		if !hasEvent(fab.Events(), "reorder dn") {
			t.Fatal("no reply was held: the reorder rule never applied")
		}
	})
}

func hasEvent(events []string, substr string) bool {
	for _, e := range events {
		if bytes.Contains([]byte(e), []byte(substr)) {
			return true
		}
	}
	return false
}

// hammerVersion is file f's content at version v: the version in the
// first 8 bytes, so a reader can tell which version it got, then bytes
// that differ per file, version and block.
func hammerVersion(f, v, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte((i*31 + f*7 + v*13) % 251)
	}
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

func hammerReplicaSlots(t *testing.T, lc *liveCluster) {
	const (
		files     = 4
		blockSize = 64 << 10
		size      = 4 * blockSize
		rounds    = 48
		readers   = 4
	)
	writer := lc.client(t)
	path := func(f int) string { return fmt.Sprintf("/hammer/f%d", f) }
	for f := 0; f < files; f++ {
		if err := writer.WriteFile(path(f), hammerVersion(f, 0, size), blockSize, 2); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}

	var done atomic.Bool
	var good, failed atomic.Int64
	var wg sync.WaitGroup
	clients := make([]*client.Client, readers)
	for r := range clients {
		clients[r] = lc.client(t)
		wg.Add(1)
		go func(c *client.Client, r int) {
			defer wg.Done()
			for i := r; !done.Load(); i++ {
				f := i % files
				got, err := c.ReadFile(path(f), "")
				if err != nil || len(got) == 0 {
					// The file was deleted under the read, or its new
					// version has no block yet: nothing to check.
					failed.Add(1)
					continue
				}
				// A version being written reads as the blocks it has so
				// far.
				v := int(binary.LittleEndian.Uint64(got))
				if len(got) > size || v > rounds || !bytes.Equal(got, hammerVersion(f, v, size)[:len(got)]) {
					t.Errorf("reader %d: %s read back bytes of no version it ever had", r, path(f))
					return
				}
				good.Add(1)
			}
		}(clients[r], r)
	}
	// Each round overwrites one file: the namespace refuses to create
	// over a live file, so an overwrite is a delete and a write of the
	// same path, whose blocks land in the slots the delete freed.
	for v := 1; v <= rounds; v++ {
		f := v % files
		if err := writer.Delete(path(f)); err != nil {
			t.Errorf("Delete: %v", err)
		}
		if err := writer.WriteFile(path(f), hammerVersion(f, v, size), blockSize, 2); err != nil {
			t.Errorf("WriteFile v%d: %v", v, err)
		}
	}
	done.Store(true)
	wg.Wait()

	var crcFailures int64
	for _, c := range clients {
		crcFailures += c.ChecksumFailures()
	}
	if crcFailures != 0 {
		t.Errorf("%d block reads failed their end-to-end checksum: a replica's bytes changed while it was served", crcFailures)
	}
	if good.Load() == 0 {
		t.Fatal("no read completed: the hammer checked nothing")
	}
	t.Logf("%d reads checked, %d raced a delete", good.Load(), failed.Load())
	checkReplicaMemory(t, lc)
}

// checkReplicaMemory is the arena accounting invariant at quiescence:
// once traffic has stopped, every datanode holds exactly one slot per
// stored replica with bytes and no two replicas share one. (Every live
// cluster checks the other half, nothing held or mapped after Close,
// when the test ends.)
func checkReplicaMemory(t *testing.T, lc *liveCluster) {
	t.Helper()
	for _, dn := range lc.DataNodes {
		settleReplicaMemory(t, dn, "one unshared slot per replica", func(m storage.Memory) bool {
			return m.Shared == 0 && m.Slots == m.Replicas
		})
	}
}
