package dfs_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
)

// A block whose CRC32C is 0 goes through a TCP write, verified by every
// datanode on its pipeline against the sum that landed with it, and a
// read the client verifies: its recorded checksum is 1 and no check
// fails.
func TestZeroCRCBlockSurvivesWriteAndVerifiedRead(t *testing.T) {
	clock := simclock.NewScaledReal(4)
	c, err := cluster.StartOn(clock, transport.Loopback{}, cluster.Config{
		Nodes: 3, Seed: 11, Media: storage.RAMSpec(), Mode: cluster.ModeInputsInRAM})
	if err != nil {
		t.Fatalf("cluster start: %v", err)
	}
	defer c.Close()
	cl, err := client.New(clock, transport.Loopback{}, c.NameNode.Addr())
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer cl.Close()

	data := dfs.ZeroCRCPayload(bytes.Repeat([]byte{0x3C, 0xA5}, 300<<10))
	if err := cl.WriteFile("/zero", data, 1<<20, 3); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	blocks, err := cl.Locations("/zero")
	if err != nil || len(blocks) != 1 || blocks[0].Checksum != 1 {
		t.Fatalf("Locations = %+v, %v; want one block with checksum 1", blocks, err)
	}
	got, err := cl.ReadFile("/zero", "")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read differs from what was written")
	}
	if n := cl.ChecksumFailures(); n != 0 {
		t.Errorf("%d checksum failures, want 0", n)
	}
}
