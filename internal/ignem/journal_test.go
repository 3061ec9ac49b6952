package ignem

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/wal"
)

// failLink wraps a fakeLink, failing sends to chosen addresses so tests
// can park specific batches on the retry queue.
type failLink struct {
	*fakeLink
	down map[string]bool
}

func (l *failLink) SendMigrate(addr string, b dfs.MigrateBatch) error {
	if l.down[addr] {
		return errTransport
	}
	return l.fakeLink.SendMigrate(addr, b)
}

func (l *failLink) SendEvict(addr string, b dfs.EvictBatch) error {
	if l.down[addr] {
		return errTransport
	}
	return l.fakeLink.SendEvict(addr, b)
}

var errTransport = &transportErr{}

type transportErr struct{}

func (*transportErr) Error() string { return "link down" }

func TestJournalRoundTrip(t *testing.T) {
	log := wal.New(wal.NewMem())
	j := NewJournal(log)
	submit := time.Unix(0, 123456789)
	entries := []planEntry{
		{ID: 1, Size: 64 << 20, Checksum: 0xDEADBEEF, Addr: "dn0", Tier: dfs.TierRAM},
		{ID: 2, Size: 32 << 20, Checksum: 0, Addr: "dn1", Tier: dfs.TierRAM},
	}
	if err := j.AppendPlan(7, "job-a", true, 96<<20, submit, entries); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCopied("job-a", "dn0", dfs.TierRAM, []dfs.BlockID{1}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendPinned("job-a", "dn0", dfs.TierRAM, []dfs.BlockID{1}); err != nil {
		t.Fatal(err)
	}
	// Duplicate pins are deduped, not re-appended.
	if err := j.AppendPinned("job-a", "dn0", dfs.TierRAM, []dfs.BlockID{1}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendEvictIntent("job-b"); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendEvictBatch("job-b", "dn2", []dfs.BlockID{9}); err != nil {
		t.Fatal(err)
	}
	if got := j.Appended(); got != 5 {
		t.Fatalf("appended %d records, want 5 (pinned dedup)", got)
	}

	rec, err := NewJournal(log).Replay()
	if err != nil {
		t.Fatal(err)
	}
	if rec.epoch != 7 {
		t.Fatalf("epoch %d, want 7", rec.epoch)
	}
	if rec.records != 5 {
		t.Fatalf("replayed %d records, want 5", rec.records)
	}
	a := rec.jobs["job-a"]
	if a == nil || a.evictIntent {
		t.Fatalf("job-a recovered wrong: %+v", a)
	}
	if !a.implicit || a.jobInputSize != 96<<20 || !a.submitTime.Equal(submit) {
		t.Fatalf("job-a metadata wrong: %+v", a)
	}
	e1 := a.blocks[1]
	if e1 == nil || !e1.copied || !e1.pinned || e1.addr != "dn0" || e1.checksum != 0xDEADBEEF || e1.size != 64<<20 {
		t.Fatalf("block 1 recovered wrong: %+v", e1)
	}
	e2 := a.blocks[2]
	if e2 == nil || e2.copied || e2.pinned || e2.addr != "dn1" {
		t.Fatalf("block 2 recovered wrong: %+v", e2)
	}
	b := rec.jobs["job-b"]
	if b == nil || !b.evictIntent || !b.evictSent["dn2"][9] {
		t.Fatalf("job-b recovered wrong: %+v", b)
	}
}

func TestJournalZeroSubmitTimeRoundTrips(t *testing.T) {
	log := wal.New(wal.NewMem())
	j := NewJournal(log)
	if err := j.AppendPlan(1, "job", false, 0, time.Time{}, []planEntry{{ID: 1, Addr: "dn0", Tier: dfs.TierRAM}}); err != nil {
		t.Fatal(err)
	}
	rec, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.jobs["job"].submitTime.IsZero() {
		t.Fatalf("zero submit time came back %v", rec.jobs["job"].submitTime)
	}
}

// journaledMaster builds a master over the given link with a journal
// on be.
func journaledMaster(resolver Resolver, link SlaveLink, be wal.Backend) *Master {
	co := NewMaster(resolver, link, 42)
	co.AttachJournal(nil, wal.New(be), 0)
	return co
}

func TestTransportFailedBatchParkedAndRetried(t *testing.T) {
	resolver := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/in": {located(1, 64<<20, "dn0"), located(2, 64<<20, "dn1")},
	}}
	link := &failLink{fakeLink: newFakeLink(), down: map[string]bool{"dn1": true}}
	co := journaledMaster(resolver, link, wal.NewMem())

	if _, err := co.Migrate(dfs.MigrateReq{Job: "job", Paths: []string{"/in"}}); err != nil {
		t.Fatal(err)
	}
	st := co.Stats()
	if st.SendErrors != 1 || st.SendFailures != 1 || st.PendingRetries != 1 {
		t.Fatalf("stats after failed send: %+v", st)
	}
	if len(link.migrates["dn1"]) != 0 {
		t.Fatal("batch delivered despite link down")
	}

	// Heal and pump: the parked batch delivers exactly once.
	link.down["dn1"] = false
	co.FlushRetries()
	st = co.Stats()
	if st.PendingRetries != 0 || st.RetriedBatches != 1 {
		t.Fatalf("stats after retry: %+v", st)
	}
	if got := len(link.migrates["dn1"]); got != 1 {
		t.Fatalf("dn1 got %d batches, want 1", got)
	}
	co.FlushRetries()
	if got := len(link.migrates["dn1"]); got != 1 {
		t.Fatalf("retry re-delivered: dn1 got %d batches", got)
	}
}

func TestEvictCancelsParkedMigrates(t *testing.T) {
	resolver := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/in": {located(1, 64<<20, "dn0")},
	}}
	link := &failLink{fakeLink: newFakeLink(), down: map[string]bool{"dn0": true}}
	co := journaledMaster(resolver, link, wal.NewMem())

	if _, err := co.Migrate(dfs.MigrateReq{Job: "job", Paths: []string{"/in"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Evict(dfs.EvictReq{Job: "job"}); err != nil {
		t.Fatal(err)
	}
	link.down["dn0"] = false
	co.FlushRetries()
	if got := len(link.migrates["dn0"]); got != 0 {
		t.Fatalf("evicted job's migrate batch re-sent (%d batches): a pin would leak", got)
	}
}

func TestRecoverResumesUndeliveredBatches(t *testing.T) {
	resolver := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/in": {located(1, 64<<20, "dn0"), located(2, 32<<20, "dn1")},
	}}
	be := wal.NewMem()
	link := newFakeLink()
	co := journaledMaster(resolver, link, be)

	// Let the plan record through, then crash before any delivery is
	// journaled: the sends after the crash never happen (a dead master
	// sends nothing).
	be.CrashAfter(1)
	if _, err := co.Migrate(dfs.MigrateReq{Job: "job", Paths: []string{"/in"}, SubmitTime: time.Unix(0, 99)}); err != nil {
		t.Fatal(err)
	}
	if got := len(link.migrates["dn0"]) + len(link.migrates["dn1"]); got != 1 {
		t.Fatalf("%d batches delivered, want 1 (crash stops the fanout after the first unjournalable delivery)", got)
	}

	// Restart: fresh coordinator over the surviving log.
	be.Revive()
	link2 := newFakeLink()
	co2 := journaledMaster(resolver, link2, be)
	if err := co2.RecoverFromJournal(); err != nil {
		t.Fatal(err)
	}
	st := co2.Stats()
	if st.ResumedJobs != 1 || st.WALReplayed != 1 || st.ActiveJobs != 1 {
		t.Fatalf("recovery stats: %+v", st)
	}
	if st.Epoch != co.Epoch() {
		t.Fatalf("recovered epoch %d, want %d (no bump: pins must survive)", st.Epoch, co.Epoch())
	}
	// Both blocks re-sent (no delivery was journaled), with the plan's
	// metadata intact.
	var cmds []dfs.MigrateCmd
	for _, addr := range []string{"dn0", "dn1"} {
		for _, b := range link2.migrates[addr] {
			cmds = append(cmds, b.Cmds...)
		}
	}
	if len(cmds) != 2 {
		t.Fatalf("recovery re-sent %d cmds, want 2", len(cmds))
	}
	for _, c := range cmds {
		if c.Job != "job" || c.JobInputSize != 96<<20 || c.SubmitTime != time.Unix(0, 99) {
			t.Fatalf("reconstructed cmd wrong: %+v", c)
		}
	}
	if co2.AssignedReplica("job", 1) == "" || co2.AssignedReplica("job", 2) == "" {
		t.Fatal("recovered job lost its assignments")
	}
}

func TestRecoverSkipsDeliveredBatchesAndFinishesEvicts(t *testing.T) {
	resolver := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/in": {located(1, 64<<20, "dn0")},
	}}
	be := wal.NewMem()
	link := newFakeLink()
	co := journaledMaster(resolver, link, be)
	if _, err := co.Migrate(dfs.MigrateReq{Job: "job", Paths: []string{"/in"}}); err != nil {
		t.Fatal(err)
	}
	// Evict: the intent is journaled, then the master dies before the
	// evict batch delivery can be journaled.
	be.CrashAfter(1)
	if _, err := co.Evict(dfs.EvictReq{Job: "job"}); err != nil {
		t.Fatal(err)
	}

	be.Revive()
	link2 := newFakeLink()
	co2 := journaledMaster(resolver, link2, be)
	if err := co2.RecoverFromJournal(); err != nil {
		t.Fatal(err)
	}
	if got := len(link2.migrates["dn0"]); got != 0 {
		t.Fatalf("recovery re-sent %d migrate batches for an evict-intent job", got)
	}
	if got := len(link2.evicts["dn0"]); got != 1 {
		t.Fatalf("recovery sent %d evict batches, want 1", got)
	}
	st := co2.Stats()
	if st.ResumedJobs != 0 || st.ActiveJobs != 0 {
		t.Fatalf("evict-intent job resumed as live: %+v", st)
	}
}

func TestPlanAppendFailureFailsMigrateWithoutSideEffects(t *testing.T) {
	resolver := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/in": {located(1, 64<<20, "dn0")},
	}}
	be := wal.NewMem()
	link := newFakeLink()
	co := journaledMaster(resolver, link, be)
	be.CrashAfter(0)
	_, err := co.Migrate(dfs.MigrateReq{Job: "job", Paths: []string{"/in"}})
	if err == nil || !strings.Contains(err.Error(), "journal plan") {
		t.Fatalf("migrate err = %v, want journal plan failure", err)
	}
	if len(link.migrates) != 0 {
		t.Fatal("batches sent despite unjournaled plan")
	}
	if st := co.Stats(); st.BlocksAssigned != 0 || st.ActiveJobs != 0 {
		t.Fatalf("state mutated despite unjournaled plan: %+v", st)
	}
}

func TestJournalTruncatesWhenNothingInFlight(t *testing.T) {
	resolver := &fakeResolver{files: map[string][]dfs.LocatedBlock{
		"/in": {located(1, 64<<20, "dn0")},
	}}
	be := wal.NewMem()
	co := journaledMaster(resolver, newFakeLink(), be)
	if _, err := co.Migrate(dfs.MigrateReq{Job: "job", Paths: []string{"/in"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Evict(dfs.EvictReq{Job: "job"}); err != nil {
		t.Fatal(err)
	}
	data, err := be.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("journal holds %d bytes after the last job settled, want 0", len(data))
	}
	// Recovery from the truncated log is a clean no-op.
	if err := co.RecoverFromJournal(); err != nil {
		t.Fatal(err)
	}
	if st := co.Stats(); st.ActiveJobs != 0 {
		t.Fatalf("recovered phantom jobs: %+v", st)
	}
}
