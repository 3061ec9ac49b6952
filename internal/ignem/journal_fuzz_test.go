package ignem

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/wal"
)

// FuzzJournalRecord feeds arbitrary payloads to the journal's record
// decoder: it must return an error or succeed, never panic, and it must
// reject the retired kind 6. The seeds are one record of every kind the
// Append* encoders write, plus a kind-6 payload in its old layout.
func FuzzJournalRecord(f *testing.F) {
	log := wal.New(wal.NewMem())
	j := NewJournal(log)
	entries := []planEntry{
		{ID: 1, Size: 64 << 20, Checksum: 0xDEADBEEF, Addr: "dn0", Tier: dfs.TierSSD},
		{ID: 2, Size: 1, Addr: "dn1", Tier: dfs.TierRAM},
	}
	for _, err := range []error{
		j.AppendPlan(3, "job", true, 64<<20+1, time.Unix(0, 99), entries),
		j.AppendCopied("job", "dn0", dfs.TierSSD, []dfs.BlockID{1}),
		j.AppendPinned("job", "dn0", dfs.TierSSD, []dfs.BlockID{1}),
		j.AppendEvictIntent("job"),
		j.AppendEvictBatch("job", "dn0", []dfs.BlockID{1, 2}),
		j.AppendUnpinned("dn0", dfs.TierSSD, []dfs.BlockID{1}),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	if _, err := log.Replay(func(payload []byte) error {
		f.Add(append([]byte(nil), payload...))
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	retired := appendString([]byte{6}, "dn0")
	retired = binary.AppendUvarint(retired, uint64(dfs.TierSSD))
	retired = binary.AppendUvarint(retired, 1)
	retired = binary.AppendUvarint(retired, 1)
	f.Add(retired)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec := &recovered{
			jobs:      make(map[dfs.JobID]*recoveredJob),
			residency: make(map[residentKey]*ledgerEntry),
		}
		err := decodeRecord(data, rec, make(map[pinKey]struct{}))
		if len(data) > 0 && data[0] == 6 && err == nil {
			t.Fatal("retired record kind 6 decoded without error")
		}
	})
}
