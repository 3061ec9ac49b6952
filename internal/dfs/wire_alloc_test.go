package dfs

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/transport"
)

// TestControlCallAllocCeiling pins the allocations of two control RPCs
// over TCP loopback, counted across both ends (client, conns, server
// dispatch and handler): a getLocations-shaped call answered with one
// three-replica block, and a two-command MigrateBatch. Framed they take
// 10 and 4 (2 cores, go1.24.0); the ceilings leave 25 % headroom or more.
// Through gob they took 34 and 21.
func TestControlCallAllocCeiling(t *testing.T) {
	now := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	locations := GetLocationsResp{Blocks: []LocatedBlock{{
		Block: Block{ID: 42, Size: 64 << 10}, Nodes: []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"},
		Tiers: []Tier{TierHDD, TierRAM, TierHDD}, Assigned: "127.0.0.1:9002", Checksum: 0x1234,
	}}}
	clock := simclock.NewReal()
	tnet := transport.NewTCPNetwork()
	l, err := tnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	srv := transport.NewServer(clock)
	srv.Handle("nn.getLocations", func(any) (any, error) { return locations, nil })
	srv.Handle("ignem.migrateBatch", func(any) (any, error) { return MigrateBatchResp{}, nil })
	srv.ServeBackground(l)
	defer srv.Close()
	c, err := transport.Dial(clock, tnet, l.Addr(), transport.WithCallTimeout(30*time.Second))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	for _, tc := range []struct {
		name    string
		method  string
		arg     any
		ceiling float64
	}{
		{"getLocations", "nn.getLocations", GetLocationsReq{Path: "/bench/w0/f17", Job: "job-3"}, 14},
		{"migrateBatch", "ignem.migrateBatch", MigrateBatch{Epoch: 2, Cmds: []MigrateCmd{
			{Block: Block{ID: 42, Size: 64 << 10}, Job: "job-3", JobInputSize: 256 << 10, SubmitTime: now, Implicit: true, Tier: TierRAM},
			{Block: Block{ID: 43, Size: 64 << 10}, Job: "job-3", JobInputSize: 256 << 10, SubmitTime: now, Implicit: true, Tier: TierRAM},
		}}, 7},
	} {
		const calls = 2000
		call := func() {
			if _, err := c.Call(tc.method, tc.arg); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		for i := 0; i < 200; i++ { // warm the pools and conn scratch
			call()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / calls
		t.Logf("%s: %.2f allocations per call over TCP (ceiling %.0f)", tc.name, allocs, tc.ceiling)
		if allocs > tc.ceiling && !raceEnabled {
			t.Errorf("%s call allocates %.2f times, want ≤ %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}
