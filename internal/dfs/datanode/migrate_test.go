package datanode

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
	"repro/internal/storage"
)

// CopyForMigration charges each tier pair to the devices that hold its
// source and destination: the cold device for a read off disk, the
// flash device for a flash read or write. Without a flash device every
// copy is the paper's migration read of the cold device.
func TestCopyForMigrationDevices(t *testing.T) {
	cases := []struct {
		from, to dfs.Tier
		ssd      bool
		// mediaBusy and ssdBusy say which device's Busy must grow; the
		// other must not move.
		mediaBusy, ssdBusy bool
	}{
		{from: dfs.TierHDD, to: dfs.TierRAM, ssd: true, mediaBusy: true},
		{from: dfs.TierHDD, to: dfs.TierSSD, ssd: true, mediaBusy: true, ssdBusy: true},
		{from: dfs.TierSSD, to: dfs.TierRAM, ssd: true, ssdBusy: true},
		{from: dfs.TierHDD, to: dfs.TierRAM, mediaBusy: true},
		{from: dfs.TierHDD, to: dfs.TierSSD, mediaBusy: true},
		{from: dfs.TierSSD, to: dfs.TierRAM, mediaBusy: true},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v-%v/ssd=%v", c.from, c.to, c.ssd), func(t *testing.T) {
			run(t, func(v *simclock.Virtual) {
				cfg := Config{Media: storage.HDDSpec()}
				if c.ssd {
					cfg.SSD = storage.SSDSpec()
				}
				nn, dn := startPair(t, v, cfg)
				defer nn.Close()
				defer dn.Close()
				data := storeBlock(t, dn, 1)
				busy := func() (media, ssd time.Duration) {
					media = dn.MediaDevice().Stats().Busy
					if dn.SSDDevice() != nil {
						ssd = dn.SSDDevice().Stats().Busy
					}
					return media, ssd
				}
				media0, ssd0 := busy()
				if err := dn.CopyForMigration(dfs.Block{ID: 1, Size: int64(len(data))}, 0, c.from, c.to); err != nil {
					t.Fatal(err)
				}
				media1, ssd1 := busy()
				if got := media1 > media0; got != c.mediaBusy {
					t.Errorf("cold device busy %v → %v, want growth %v", media0, media1, c.mediaBusy)
				}
				if got := ssd1 > ssd0; got != c.ssdBusy {
					t.Errorf("flash device busy %v → %v, want growth %v", ssd0, ssd1, c.ssdBusy)
				}
			})
		})
	}
}

// A copy that reads the disk verifies the replica on the way: a rotten
// one fails the migration with dfs.ErrChecksum and is dropped, so it is
// never pinned.
func TestCopyForMigrationRejectsCorruptReplica(t *testing.T) {
	for _, to := range []dfs.Tier{dfs.TierRAM, dfs.TierSSD} {
		t.Run(fmt.Sprintf("%v-%v", dfs.TierHDD, to), func(t *testing.T) {
			run(t, func(v *simclock.Virtual) {
				nn, dn := startPair(t, v, Config{SSD: storage.SSDSpec()})
				defer nn.Close()
				defer dn.Close()
				data := storeBlock(t, dn, 1)
				if !dn.CorruptReplica(1) {
					t.Fatal("CorruptReplica(1) = false")
				}
				err := dn.CopyForMigration(dfs.Block{ID: 1, Size: int64(len(data))}, 0, dfs.TierHDD, to)
				if !errors.Is(err, dfs.ErrChecksum) {
					t.Fatalf("err = %v, want dfs.ErrChecksum", err)
				}
				if dn.store.Len() != 0 {
					t.Error("rotten replica still stored after a failed migration copy")
				}
			})
		})
	}
}
