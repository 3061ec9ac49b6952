package ignem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/wal"
)

// Journal is the master's migration write-ahead log: a thin typed layer
// over wal.Log that records each job's progress through the migration
// state machine —
//
//	planned → copied → swapped/checked
//
// plus eviction intents and deliveries — so a restarted master resumes
// in-flight work from the log instead of re-deriving it from epochs
// (which would purge every slave's pins). Record kinds:
//
//	recPlan        the planner chose replicas for a job's blocks (durable
//	               BEFORE anything is sent — an append failure here fails
//	               the Migrate request, so nothing undurable ever reaches
//	               a slave)
//	recCopied      a migrate batch was delivered to a slave
//	recPinned      a slave's heartbeat confirmed the blocks are pinned
//	               and checksum-verified (the swap happened and the copy
//	               checked out — the slave never pins a replica that
//	               fails verification)
//	recEvictIntent an Evict request was accepted for the job
//	recEvictBatch  an evict batch was delivered to a slave
//	recUnpinned    a slave's heartbeat reported blocks unpinned at a
//	               tier, releasing their budget charge
//
// Records are framed by wal.Log; payloads here are a one-byte kind tag
// followed by uvarint-encoded fields (strings as length + bytes).
// Everything is idempotent on replay: duplicate records only re-mark
// state already marked.
//
// Lock order: Master.mu → Journal.mu. The journal never calls back into
// a master.
type Journal struct {
	mu  sync.Mutex
	log *wal.Log
	buf []byte
	// pinnedSeen dedupes recPinned appends: heartbeats re-confirm pins
	// (re-registration, recovery re-sends), and each (job, block) needs
	// at most one swap-confirmed record. Rebuilt on replay, cleared on
	// truncate.
	pinnedSeen map[pinKey]struct{}
	appended   int64
}

type pinKey struct {
	job  dfs.JobID
	id   dfs.BlockID
	tier dfs.Tier
}

// Record kind tags. Values are part of the on-disk format.
const (
	recPlan        = 1
	recCopied      = 2
	recPinned      = 3
	recEvictIntent = 4
	recEvictBatch  = 5
	// Tag 6 is retired (it released a demoted residency; the ladder no
	// longer demotes). Never reuse it: replay rejects it as unknown.
	//
	// recUnpinned mirrors a slave's heartbeat unpin delta, releasing the
	// block's budget charge at that tier. It is a ledger-only record: it
	// carries no job state.
	recUnpinned = 7
)

// planEntry is one block's slot in a recPlan record: everything needed
// to reconstruct its MigrateCmd on recovery. A re-plan of an existing
// (job, block) at a different Tier is the ladder's second rung: replay
// adopts the new tier and resets the entry's copied/pinned progress.
type planEntry struct {
	ID       dfs.BlockID
	Size     int64
	Checksum uint32
	Addr     string
	Tier     dfs.Tier
}

// NewJournal wraps a record log in the master's typed journal.
func NewJournal(log *wal.Log) *Journal {
	return &Journal{log: log, pinnedSeen: make(map[pinKey]struct{})}
}

// Appended reports how many records this journal has written since it
// was opened (replayed records don't count).
func (j *Journal) Appended() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// AppendPlan journals a planning decision. It must succeed BEFORE the
// batches are sent: a failed append means the plan was never durable,
// so the caller must drop it and fail the request (the crash model —
// if the log is gone, the master is dead).
func (j *Journal) AppendPlan(epoch uint64, job dfs.JobID, implicit bool, jobInputSize int64, submitTime time.Time, entries []planEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	b := j.buf[:0]
	b = append(b, recPlan)
	b = binary.AppendUvarint(b, epoch)
	b = appendString(b, string(job))
	if implicit {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(jobInputSize))
	// The zero time round-trips via a flag: UnixNano is undefined for it.
	if submitTime.IsZero() {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(submitTime.UnixNano()))
	}
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = binary.AppendUvarint(b, uint64(e.ID))
		b = binary.AppendUvarint(b, uint64(e.Size))
		b = binary.AppendUvarint(b, uint64(e.Checksum))
		b = appendString(b, e.Addr)
		b = binary.AppendUvarint(b, uint64(e.Tier))
	}
	j.buf = b
	return j.append(b)
}

// AppendCopied journals that a migrate batch targeting tier reached
// addr.
func (j *Journal) AppendCopied(job dfs.JobID, addr string, tier dfs.Tier, ids []dfs.BlockID) error {
	return j.appendDelivery(recCopied, job, addr, tier, ids)
}

// AppendEvictBatch journals that an evict batch reached addr.
func (j *Journal) AppendEvictBatch(job dfs.JobID, addr string, ids []dfs.BlockID) error {
	return j.appendDelivery(recEvictBatch, job, addr, dfs.TierHDD, ids)
}

// AppendPinned journals heartbeat-confirmed pins at tier (the
// swapped/checked stage), deduplicating (job, block, tier) triples
// already journaled. Errors are the caller's to ignore: pins are
// re-observable from heartbeats, so a lost recPinned only costs a
// redundant re-send after recovery.
func (j *Journal) AppendPinned(job dfs.JobID, addr string, tier dfs.Tier, ids []dfs.BlockID) error {
	j.mu.Lock()
	fresh := ids[:0:0]
	for _, id := range ids {
		if _, dup := j.pinnedSeen[pinKey{job, id, tier}]; !dup {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) == 0 {
		j.mu.Unlock()
		return nil
	}
	for _, id := range fresh {
		j.pinnedSeen[pinKey{job, id, tier}] = struct{}{}
	}
	j.mu.Unlock()
	return j.appendDelivery(recPinned, job, addr, tier, fresh)
}

// AppendUnpinned journals a slave's heartbeat unpin delta at tier, the
// budget-release half of the ledger's accounting. Errors are ignorable
// for the same reason as AppendPinned.
func (j *Journal) AppendUnpinned(addr string, tier dfs.Tier, ids []dfs.BlockID) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	b := j.buf[:0]
	b = append(b, recUnpinned)
	b = appendString(b, addr)
	b = binary.AppendUvarint(b, uint64(tier))
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id))
	}
	j.buf = b
	return j.append(b)
}

// AppendEvictIntent journals that an Evict was accepted for job. Like
// AppendPlan it must succeed before any evict batch is sent.
func (j *Journal) AppendEvictIntent(job dfs.JobID) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	b := j.buf[:0]
	b = append(b, recEvictIntent)
	b = appendString(b, string(job))
	j.buf = b
	return j.append(b)
}

func (j *Journal) appendDelivery(kind byte, job dfs.JobID, addr string, tier dfs.Tier, ids []dfs.BlockID) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	b := j.buf[:0]
	b = append(b, kind)
	b = appendString(b, string(job))
	b = appendString(b, addr)
	b = binary.AppendUvarint(b, uint64(tier))
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id))
	}
	j.buf = b
	return j.append(b)
}

// append must be called with j.mu held.
func (j *Journal) append(payload []byte) error {
	if err := j.log.Append(payload); err != nil {
		return err
	}
	j.appended++
	return nil
}

// MarkPinned records a pin confirmation learned outside the log
// (recovery reconciliation against the namenode's residency view), so
// a later heartbeat re-confirm doesn't append a duplicate recPinned.
func (j *Journal) MarkPinned(job dfs.JobID, id dfs.BlockID, tier dfs.Tier) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pinnedSeen[pinKey{job, id, tier}] = struct{}{}
}

// Truncate discards the journal once nothing is in flight (no live
// jobs, no pending retries). Failures are harmless — replaying a
// fully-settled log reconstructs only settled state.
func (j *Journal) Truncate() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Truncate(); err != nil {
		return err
	}
	j.pinnedSeen = make(map[pinKey]struct{})
	return nil
}

// ---- replay ----

// recoveredEntry is one block's reconstructed migration state. tier is
// the entry's CURRENT target: a second-rung re-plan overwrites it and
// resets copied/pinned, so recovery resumes the rung in flight, not the
// one already climbed.
type recoveredEntry struct {
	size     int64
	checksum uint32
	addr     string
	tier     dfs.Tier
	copied   bool // migrate batch delivery journaled (current tier)
	pinned   bool // slave heartbeat confirmed the pin (current tier)
}

// recoveredJob is one job's reconstructed state machine.
type recoveredJob struct {
	implicit     bool
	jobInputSize int64
	submitTime   time.Time
	blocks       map[dfs.BlockID]*recoveredEntry
	evictIntent  bool
	// evictSent records evict-batch deliveries per slave address.
	evictSent map[string]map[dfs.BlockID]bool
}

// recovered is the journal's replayed view of the world.
type recovered struct {
	epoch   uint64 // highest plan epoch seen; 0 when the log is empty
	records int
	jobs    map[dfs.JobID]*recoveredJob
	// residency is the replayed tier-ledger charges per (block, addr),
	// rebuilt purely from the record stream so a recovered master's
	// budgets match what it reserved.
	residency map[residentKey]*ledgerEntry
}

// Replay parses the journal back into per-job state machines and
// rebuilds the pinned-dedup set. A torn or corrupt tail ends the replay
// silently (wal.Log's contract); a structurally bad record inside the
// intact prefix is an error, since it means the writer and reader
// disagree about the format.
func (j *Journal) Replay() (*recovered, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := &recovered{
		jobs:      make(map[dfs.JobID]*recoveredJob),
		residency: make(map[residentKey]*ledgerEntry),
	}
	pinned := make(map[pinKey]struct{})
	n, err := j.log.Replay(func(payload []byte) error {
		return decodeRecord(payload, rec, pinned)
	})
	if err != nil {
		return nil, err
	}
	rec.records = n
	j.pinnedSeen = pinned
	return rec, nil
}

func (rec *recovered) job(id dfs.JobID) *recoveredJob {
	rj := rec.jobs[id]
	if rj == nil {
		rj = &recoveredJob{
			blocks:    make(map[dfs.BlockID]*recoveredEntry),
			evictSent: make(map[string]map[dfs.BlockID]bool),
		}
		rec.jobs[id] = rj
	}
	return rj
}

func decodeRecord(payload []byte, rec *recovered, pinned map[pinKey]struct{}) error {
	c := cursor{b: payload}
	kind := c.byte()
	switch kind {
	case recPlan:
		epoch := c.uvarint()
		job := dfs.JobID(c.str())
		implicit := c.byte() == 1
		jobInputSize := int64(c.uvarint())
		var submitTime time.Time
		if c.byte() == 1 {
			submitTime = time.Unix(0, int64(c.uvarint()))
		}
		n := int(c.uvarint())
		rj := rec.job(job)
		rj.implicit = implicit
		rj.jobInputSize = jobInputSize
		rj.submitTime = submitTime
		for i := 0; i < n && c.err == nil; i++ {
			id := dfs.BlockID(c.uvarint())
			size := int64(c.uvarint())
			sum := uint32(c.uvarint())
			addr := c.str()
			tier := c.tier()
			if c.err != nil {
				break
			}
			e := rj.blocks[id]
			if e == nil {
				rj.blocks[id] = &recoveredEntry{size: size, checksum: sum, addr: addr, tier: tier}
			} else if e.tier != tier {
				// Second rung: the climb re-planned the block at a new
				// tier, restarting its copied/pinned progress there.
				e.tier = tier
				e.copied = false
				e.pinned = false
			}
			if tier != dfs.TierHDD {
				k := residentKey{id, addr}
				r := rec.residency[k]
				if r == nil {
					r = &ledgerEntry{size: size}
					rec.residency[k] = r
				}
				r.charged[tier] = true
			}
		}
		if epoch > rec.epoch {
			rec.epoch = epoch
		}
	case recCopied, recPinned, recEvictBatch:
		job := dfs.JobID(c.str())
		addr := c.str()
		tier := c.tier()
		n := int(c.uvarint())
		rj := rec.job(job)
		for i := 0; i < n && c.err == nil; i++ {
			id := dfs.BlockID(c.uvarint())
			switch kind {
			case recCopied, recPinned:
				e := rj.blocks[id]
				if e == nil {
					// Delivery for a block whose plan record is gone
					// (pre-truncate job): nothing to resume.
					continue
				}
				if kind == recPinned {
					pinned[pinKey{job, id, tier}] = struct{}{}
				}
				if e.tier != tier {
					// A delivery for a rung the entry already climbed
					// past (or a late pin confirm after a re-plan): the
					// current rung's progress is unaffected.
					continue
				}
				e.copied = true
				if kind == recPinned {
					e.pinned = true
				}
			case recEvictBatch:
				sent := rj.evictSent[addr]
				if sent == nil {
					sent = make(map[dfs.BlockID]bool)
					rj.evictSent[addr] = sent
				}
				sent[id] = true
			}
		}
	case recEvictIntent:
		rec.job(dfs.JobID(c.str())).evictIntent = true
	case recUnpinned:
		addr := c.str()
		tier := c.tier()
		n := int(c.uvarint())
		for i := 0; i < n && c.err == nil; i++ {
			id := dfs.BlockID(c.uvarint())
			if r := rec.residency[residentKey{id, addr}]; r != nil && tier != dfs.TierHDD {
				r.charged[tier] = false
			}
		}
	default:
		return fmt.Errorf("ignem: journal record kind %d unknown", kind)
	}
	if c.err != nil {
		return fmt.Errorf("ignem: journal record kind %d: %w", kind, c.err)
	}
	return nil
}

// ---- encoding primitives ----

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// cursor decodes a record payload with sticky error handling, so record
// parsers read fields linearly and check err once.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if len(c.b) == 0 {
		c.err = fmt.Errorf("truncated record")
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.err = fmt.Errorf("truncated record")
		return 0
	}
	c.b = c.b[n:]
	return v
}

// tier reads a tier tag. A value past TierRAM is a corrupt record, not
// an index into a per-tier table.
func (c *cursor) tier() dfs.Tier {
	v := c.uvarint()
	if c.err == nil && v > uint64(dfs.TierRAM) {
		c.err = fmt.Errorf("tier %d out of range", v)
	}
	if c.err != nil {
		return dfs.TierHDD
	}
	return dfs.Tier(v)
}

func (c *cursor) str() string {
	n := c.uvarint()
	if c.err != nil {
		return ""
	}
	if uint64(len(c.b)) < n {
		c.err = fmt.Errorf("truncated record")
		return ""
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s
}
