// Package dfs defines the common types and wire messages of the
// HDFS-like distributed file system that Ignem extends: block and file
// metadata, the namenode and datanode RPC schemas, and the Ignem
// migrate/evict extension messages.
//
// The implementation lives in the subpackages:
//
//   - dfs/namenode: namespace, block manager, datanode registry, and the
//     embedded Ignem master.
//   - dfs/datanode: block storage over simulated devices, the pinned
//     memory region, and the embedded Ignem slave.
//   - dfs/client: the DFSClient used by jobs — create/write/open/read
//     plus the Migrate and Evict calls the paper adds.
package dfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"time"

	"repro/internal/transport"
)

// BlockID identifies a block cluster-wide.
type BlockID uint64

// castagnoli is the CRC32C polynomial table used for end-to-end block
// checksums (the same polynomial HDFS and iSCSI use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC32C of a block payload. Zero means "no
// checksum": synthetic (size-only) blocks carry no bytes to sum, and a
// real payload whose CRC lands on 0 is nudged to 1 so zero stays
// unambiguous — a 1-in-4-billion bias no integrity check will notice.
func Checksum(data []byte) uint32 {
	if len(data) == 0 {
		return 0
	}
	sum := crc32.Checksum(data, castagnoli)
	if sum == 0 {
		return 1
	}
	return sum
}

// JobID identifies a job for migration reference lists, carried on the
// read path exactly as the paper extends HDFS reads.
type JobID string

// Tier ranks storage classes in the migration ladder, coldest first.
// Higher tiers are faster; Ignem policies promote blocks upward
// (HDD→SSD→RAM) and demote them downward. It is defined here — not in
// package storage — because migrate commands and heartbeat pin deltas
// carry tier identity on the wire; storage aliases it for device specs.
type Tier int

const (
	// TierHDD is the cold base tier where every block starts. It is
	// never a migration target, which lets legacy tier-less messages
	// read the zero value as "RAM" (see MigrateCmd.Tier).
	TierHDD Tier = iota
	// TierSSD is the intermediate flash tier.
	TierSSD
	// TierRAM is the top tier (the paper's pin-in-memory target).
	TierRAM
)

// String names the tier as the figures do.
func (t Tier) String() string {
	switch t {
	case TierHDD:
		return "hdd"
	case TierSSD:
		return "ssd"
	case TierRAM:
		return "ram"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// EffectiveTarget maps a migrate command's wire tier to the tier a
// slave pins at: the zero value (TierHDD, never a valid target) means a
// legacy pin-in-RAM command.
func (t Tier) EffectiveTarget() Tier {
	if t == TierHDD {
		return TierRAM
	}
	return t
}

// Block is block metadata.
type Block struct {
	ID   BlockID
	Size int64
}

// LocatedBlock is a block with its replica locations.
type LocatedBlock struct {
	Block  Block
	Offset int64 // byte offset of this block within the file
	// Nodes are the datanode addresses that hold replicas.
	Nodes []string
	// Migrated are the addresses where the block is currently pinned in
	// memory by Ignem (a subset of Nodes).
	Migrated []string
	// OnSSD are the addresses holding an SSD-tier copy of the block (a
	// subset of Nodes, disjoint from Migrated in practice only when the
	// ladder has not yet climbed). Readers prefer Migrated, then OnSSD,
	// then the cold replicas.
	OnSSD []string
	// Assigned is the replica the Ignem master chose to migrate for the
	// requesting job (set only on job-scoped location queries). Tasks
	// direct their reads there: that is where the in-memory copy is or
	// will be, which is how the paper's migrated-block locality
	// preference works.
	Assigned string
	// Checksum is the block's CRC32C, recorded at allocation from the
	// writing client and carried to readers so every fetched payload is
	// verifiable end to end. Zero means no checksum (synthetic blocks,
	// or writers that opted out).
	Checksum uint32
}

// FileInfo is file metadata.
type FileInfo struct {
	Path        string
	Size        int64
	BlockSize   int64
	Replication int
	Complete    bool
}

// DefaultBlockSize matches the paper's HDFS configuration (64 MB).
const DefaultBlockSize int64 = 64 << 20

// DefaultReplication matches HDFS's default replica count.
const DefaultReplication = 3

// DefaultDataNodeTimeout is the per-call timeout for datanode dials —
// both client→datanode and datanode→datanode (pipeline forwards,
// re-replication pulls). It is generous because a single call may move
// a full block.
const DefaultDataNodeTimeout = 5 * time.Minute

// ---- Namenode RPC schema (methods prefixed "nn.") ----

// CreateReq starts a new file.
type CreateReq struct {
	Path        string
	BlockSize   int64
	Replication int
}

// CreateResp acknowledges file creation.
type CreateResp struct{}

// AddBlockReq allocates the next block of an open file; the namenode
// chooses replica targets.
type AddBlockReq struct {
	Path string
	Size int64 // payload bytes in this block (<= BlockSize)
	// Exclude lists datanode addresses placement must avoid (a writer
	// retrying after a pipeline failure excludes the nodes it watched
	// die). Ignored when honoring it would leave no candidates.
	Exclude []string
	// ReqID, when non-zero, makes the allocation idempotent: a retry of
	// the file's most recent allocation (same ReqID) returns the blocks
	// already allocated instead of allocating again, so an RPC retry
	// after a lost reply cannot double-allocate.
	ReqID uint64
	// Checksum is the CRC32C of the block's payload, computed by the
	// writing client before allocation. Zero means unchecksummed.
	Checksum uint32
}

// AddBlockResp returns the allocated block and its target datanodes.
type AddBlockResp struct {
	Located LocatedBlock
}

// AddBlocksReq allocates the next len(Sizes) blocks of an open file in
// one call, taking the namenode's namespace lock once per window instead
// of once per block. Blocks are appended to the file in Sizes order, and
// placement draws the seeded rng in that same order, so a batched
// allocation is bit-identical to the equivalent sequence of AddBlockReq
// calls. Used by the parallel write path.
type AddBlocksReq struct {
	Path  string
	Sizes []int64 // payload bytes per block (each <= BlockSize)
	// Exclude and ReqID behave exactly as on AddBlockReq.
	Exclude []string
	ReqID   uint64
	// Checksums are the per-block CRC32Cs, parallel to Sizes. Nil (or
	// any zero entry) means the corresponding block is unchecksummed.
	Checksums []uint32
}

// AddBlocksResp returns the allocated blocks, in request order.
type AddBlocksResp struct {
	Located []LocatedBlock
}

// RetargetBlockReq re-picks replica targets for an already-allocated
// block, keeping its ID and file offset. A writer whose pipeline died
// mid-block uses it to retry the same block on fresh nodes (excluding
// the dead ones) without disturbing the file's block order. Replicas
// the old targets may still hold become harmless over-replication,
// cleaned up by their next block report.
type RetargetBlockReq struct {
	Path    string
	Block   BlockID
	Exclude []string
}

// RetargetBlockResp returns the block with its new targets.
type RetargetBlockResp struct {
	Located LocatedBlock
}

// CompleteReq seals a file.
type CompleteReq struct{ Path string }

// CompleteResp acknowledges sealing.
type CompleteResp struct{}

// GetInfoReq fetches file metadata.
type GetInfoReq struct{ Path string }

// GetInfoResp returns file metadata.
type GetInfoResp struct{ Info FileInfo }

// GetLocationsReq fetches the block layout of a file. When Job is set,
// each block is annotated with the replica the Ignem master assigned to
// that job's migration.
type GetLocationsReq struct {
	Path string
	Job  JobID
}

// GetLocationsResp returns all blocks with live replica locations and
// current migration state.
type GetLocationsResp struct{ Blocks []LocatedBlock }

// DeleteReq removes a file.
type DeleteReq struct{ Path string }

// DeleteResp acknowledges removal.
type DeleteResp struct{}

// ListReq lists files whose path starts with Prefix.
type ListReq struct{ Prefix string }

// ListResp returns the matching files.
type ListResp struct{ Files []FileInfo }

// MigrateReq asks the Ignem master to migrate the inputs of a job into
// memory (the paper's DFSClient.migrate extension).
type MigrateReq struct {
	Job   JobID
	Paths []string
	// Implicit opts the job into implicit eviction: the job ID is
	// dropped from a block's reference list as soon as the job reads it.
	Implicit bool
	// SubmitTime is the job submission time, the tie-breaker for the
	// slaves' smallest-job-first priority queues.
	SubmitTime time.Time
}

// MigrateResp reports how much migration work was enqueued.
type MigrateResp struct {
	Blocks int
	Bytes  int64
}

// EvictReq tells the Ignem master a job is done with its inputs.
type EvictReq struct {
	Job   JobID
	Paths []string
}

// EvictResp acknowledges the eviction request. Blocks reports how many
// block evict notifications the Ignem master issued to its slaves —
// clients use it to size cache-invalidation work and tests use it to
// assert eviction actually propagated.
type EvictResp struct {
	Blocks int
}

// BlockReadReq tells the namenode that Job consumed the listed blocks
// without touching a datanode (client block-cache hits), so the Ignem
// master can keep the job's implicit-eviction reference lists moving.
// Clients batch these and send them fire-and-forget; losing one only
// delays eviction until the job's explicit Evict.
type BlockReadReq struct {
	Job    JobID
	Blocks []BlockID
}

// BlockReadResp acknowledges a cache-hit read notification.
type BlockReadResp struct{}

// RegisterReq announces a datanode to the namenode. Blocks is the full
// block report of what the datanode currently stores; the namenode
// reconciles its location map against it, so a datanode that restarted
// empty sheds its stale replica entries (re-replication then repairs
// the under-replicated blocks).
//
// Seq and Epoch seed the incremental-report protocol (see HeartbeatReq):
// a register is a full inventory snapshot, so it starts a new epoch and
// anchors the delta sequence the following heartbeats continue. Zero
// values opt out of sequencing (legacy senders and tests).
type RegisterReq struct {
	Addr   string
	Blocks []BlockID
	Seq    uint64
	Epoch  uint64
}

// RegisterResp acknowledges registration.
type RegisterResp struct{}

// HeartbeatReq is the periodic datanode report. Pinned and Unpinned carry
// the block IDs whose migration state changed since the last heartbeat, so
// the namenode can serve migration-aware locality.
//
// Added and Removed are the incremental block report: the replica IDs
// stored or dropped since the previous report, so the namenode's
// location map stays fresh without the datanode shipping its full
// inventory every reporting period. Seq numbers every report the
// datanode sends (register, heartbeat, full block report) from one
// counter; the namenode detects a lost delta as a sequence gap and
// answers NeedFullReport. Epoch identifies the full-inventory snapshot
// the deltas extend — it bumps on every register/full report, so a
// delta from before the latest resync is recognizably stale. Zero Seq
// opts out of sequencing entirely (legacy senders and tests).
type HeartbeatReq struct {
	Addr        string
	PinnedBytes int64
	Pinned      []BlockID
	Unpinned    []BlockID
	Seq         uint64
	Epoch       uint64
	Added       []BlockID
	Removed     []BlockID
	// SSDPinned and SSDUnpinned carry the blocks whose SSD-tier
	// residency changed since the last heartbeat, exactly as
	// Pinned/Unpinned do for the RAM tier.
	SSDPinned   []BlockID
	SSDUnpinned []BlockID
	// SSDBytes is the slave's current SSD-tier occupancy.
	SSDBytes int64
}

// HeartbeatResp acknowledges a heartbeat. NeedFullReport asks the
// datanode to send a full block report: the namenode saw a sequence gap
// or a stale epoch, so its incremental view may have missed a delta.
type HeartbeatResp struct {
	NeedFullReport bool
}

// BlockReportReq is a full replica inventory from a datanode, sent after
// registration and usable any time the namenode's view may be stale.
// Seq/Epoch behave as on RegisterReq: a full report is a snapshot, so it
// starts a new epoch and re-anchors the delta sequence.
type BlockReportReq struct {
	Addr   string
	Blocks []BlockID
	Seq    uint64
	Epoch  uint64
}

// BlockReportResp acknowledges a block report.
type BlockReportResp struct{}

// busyMarker is the substring IsBusy looks for. Application errors cross
// the transport as strings (*transport.RemoteError), so the typed
// sentinel must survive a round trip through its message text.
const busyMarker = "DFS_BUSY"

// ErrBusy is the namenode's admission-control pushback: the report
// intake queue is full, so the full reconcile was rejected before
// touching any namespace lock. Callers back off (with jitter) and
// retry; deltas and namespace RPCs are never rejected with it.
var ErrBusy = errors.New("namenode busy, retry report later (" + busyMarker + ")")

// IsBusy reports whether err is the namenode's ErrBusy pushback,
// directly or after crossing the transport as a remote error string.
func IsBusy(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrBusy) || strings.Contains(err.Error(), busyMarker)
}

// checksumMarker is the substring IsChecksum looks for. Like
// busyMarker, the typed sentinel must survive crossing the transport
// as a *transport.RemoteError string.
const checksumMarker = "DFS_CHECKSUM"

// ErrChecksum means a block payload failed CRC32C verification: the
// stored replica (or the bytes in flight) do not match the checksum
// recorded at write time. The client read path treats it like a lost
// replica and fails over to another holder; the serving datanode drops
// the corrupt replica and reports it for re-replication.
var ErrChecksum = errors.New("block checksum mismatch (" + checksumMarker + ")")

// ErrBlockLength means a replica returned a payload whose length is not
// the block's recorded size. Readers treat it like ErrChecksum: the
// replica is bad, another holder is tried.
var ErrBlockLength = errors.New("block payload length mismatch")

// IsChecksum reports whether err is a checksum-verification failure,
// directly or after crossing the transport as a remote error string.
func IsChecksum(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrChecksum) || strings.Contains(err.Error(), checksumMarker)
}

// CorruptReplicaReq reports a checksum-verification failure to the
// namenode: the datanode at Addr found its replica of Block corrupt
// (on a read, a migrate copy, or a background scrub) and dropped it.
// The namenode removes the replica from its location map, so the
// replication sweep re-replicates from a healthy holder.
type CorruptReplicaReq struct {
	Addr  string
	Block BlockID
}

// CorruptReplicaResp acknowledges a corruption report.
type CorruptReplicaResp struct{}

// EpochReq asks the namenode for the Ignem master's current epoch. A
// revived datanode sends it during re-registration so its slave can
// reconcile stale pins immediately instead of waiting for the next
// epoch broadcast.
type EpochReq struct{}

// EpochResp returns the master's current epoch.
type EpochResp struct{ Epoch uint64 }

// ---- Datanode RPC schema (methods prefixed "dn.") ----

// WriteBlockReq stores a block replica on a datanode. Exactly one of
// Data or Size describes the payload: Data carries real bytes; Size
// declares a synthetic block used by experiment-scale workloads.
// Pipeline lists the remaining downstream replica targets: the receiving
// datanode stores its copy and forwards the block along the chain, as
// the HDFS write pipeline does. EagerPipeline overlaps the local
// buffer-cache write with the downstream forward (set by the parallel
// write path); when false the datanode stores, then forwards — the
// historical ordering, kept for virtual-clock runs whose figures are
// timing-sensitive.
type WriteBlockReq struct {
	Block         Block
	Data          []byte
	Pipeline      []string
	EagerPipeline bool
	// Checksum is the client-computed CRC32C of Data (zero when
	// unchecksummed). Each datanode on the pipeline verifies the
	// payload against it before storing, so a corruption anywhere on
	// the write path fails the write instead of persisting silently.
	Checksum uint32

	// pooled marks Data as a bufpool buffer owned by the holder; set
	// only by the frame decoders (see frame.go). Unexported so it
	// never crosses the wire.
	pooled bool
}

// WireSize charges the network for the payload.
func (r WriteBlockReq) WireSize() int64 {
	if len(r.Data) > 0 {
		return int64(len(r.Data))
	}
	return r.Block.Size
}

// WriteBlockResp acknowledges a replica write.
type WriteBlockResp struct{}

// ReadBlockReq reads a block replica. Job identifies the reader for
// implicit eviction. Local marks a same-node read, which bypasses the
// network bandwidth charge like an HDFS short-circuit read.
// ReaderVerifies says the caller will check the returned bytes against
// the block's namenode-recorded checksum before using them, so the
// datanode serves without its own CRC pass: every served byte is
// verified exactly once, by the last party that can. A reader that
// cannot verify leaves it clear and the datanode verifies before
// serving.
type ReadBlockReq struct {
	Block          BlockID
	Job            JobID
	Local          bool
	ReaderVerifies bool
}

// ReadBlockResp returns the block payload (Data for real blocks, only
// Size for synthetic ones) and whether it was served from pinned memory.
type ReadBlockResp struct {
	Data       []byte
	Size       int64
	FromMemory bool
	Local      bool

	// pooled marks Data as a bufpool buffer owned by the holder; set
	// only by the frame decoders (see frame.go).
	pooled bool
}

// WireSize charges the network for remote bulk reads only.
func (r ReadBlockResp) WireSize() int64 {
	if r.Local {
		return 256
	}
	if len(r.Data) > 0 {
		return int64(len(r.Data))
	}
	return r.Size
}

// VerifyBlockReq asks a datanode to check one stored replica against its
// write-time checksum now — the second opinion a verifying reader
// requests after its own end-to-end check failed. The holder decides: a
// rotten replica is dropped and reported exactly as the scrubber would,
// a healthy one (the corruption was on the wire, or the reader's
// checksum is wrong) is left alone.
type VerifyBlockReq struct{ Block BlockID }

// VerifyBlockResp acknowledges a verification; the outcome reaches the
// namenode through the corrupt-replica report, not the caller.
type VerifyBlockResp struct{}

// PullBlockReq tells a datanode to fetch a block replica from a peer
// (re-replication after a node failure).
type PullBlockReq struct {
	Block Block
	From  string
}

// PullBlockResp acknowledges that the replica is now stored locally.
type PullBlockResp struct{}

// DeleteBlocksReq removes block replicas from a datanode.
type DeleteBlocksReq struct{ Blocks []BlockID }

// DeleteBlocksResp acknowledges replica removal.
type DeleteBlocksResp struct{}

// ---- Ignem master→slave command schema (methods prefixed "ignem.") ----

// MigrateCmd orders a slave to migrate one block for one job.
type MigrateCmd struct {
	Block Block
	Job   JobID
	// JobInputSize drives the smallest-job-first queue priority.
	JobInputSize int64
	SubmitTime   time.Time
	Implicit     bool
	// Checksum is the block's CRC32C from the namespace (zero when
	// unchecksummed); the slave verifies the stored replica against it
	// during the migrate copy, so a corrupt replica is reported instead
	// of pinned.
	Checksum uint32
	// Tier is the target tier of the migration. The zero value (TierHDD
	// — never a valid target) means TierRAM, so tier-less legacy
	// commands and journal records replay as the paper's pin-in-RAM.
	Tier Tier
}

// MigrateBatch carries a batch of migrate commands (the paper batches
// master→slave RPCs to reduce overhead).
type MigrateBatch struct {
	Epoch uint64
	Cmds  []MigrateCmd
}

// MigrateBatchResp acknowledges a migrate batch.
type MigrateBatchResp struct{}

// EvictCmd removes a job from a block's reference list.
type EvictCmd struct {
	Block BlockID
	Job   JobID
}

// EvictBatch carries a batch of evict commands.
type EvictBatch struct {
	Epoch uint64
	Cmds  []EvictCmd
}

// EvictBatchResp acknowledges an evict batch.
type EvictBatchResp struct{}

// DemoteCmd orders a slave to drop its tier-resident copy of a block
// regardless of outstanding job references — downward migration. The
// block's cold HDD replica is untouched, so a demotion never loses
// data; it only frees the fast tier. Policies use it to drain
// truly-cold residents (the NOVA-style downward rotation).
type DemoteCmd struct {
	Block BlockID
	// Tier is the tier to vacate (TierSSD for the ladder's downward
	// arm; TierRAM demotions are expressed as evictions today).
	Tier Tier
}

// DemoteBatch carries a batch of demote commands.
type DemoteBatch struct {
	Epoch uint64
	Cmds  []DemoteCmd
}

// DemoteBatchResp acknowledges a demote batch.
type DemoteBatchResp struct{}

// ReadNotifyCmd tells a slave that Job read Block somewhere the
// datanode could not observe (a client cache hit), so the slave applies
// the same reference-list bookkeeping OnBlockRead would.
type ReadNotifyCmd struct {
	Block BlockID
	Job   JobID
}

// ReadNotifyBatch carries a batch of read notifications.
type ReadNotifyBatch struct {
	Epoch uint64
	Cmds  []ReadNotifyCmd
}

// ReadNotifyBatchResp acknowledges a read-notify batch.
type ReadNotifyBatchResp struct{}

// RegisterWire registers every wire type for the TCP transport's gob
// codec. It is safe to call more than once.
func RegisterWire() {
	for _, v := range []any{
		CreateReq{}, CreateResp{},
		AddBlockReq{}, AddBlockResp{},
		AddBlocksReq{}, AddBlocksResp{},
		RetargetBlockReq{}, RetargetBlockResp{},
		CompleteReq{}, CompleteResp{},
		GetInfoReq{}, GetInfoResp{},
		GetLocationsReq{}, GetLocationsResp{},
		DeleteReq{}, DeleteResp{},
		ListReq{}, ListResp{},
		MigrateReq{}, MigrateResp{},
		EvictReq{}, EvictResp{},
		RegisterReq{}, RegisterResp{},
		HeartbeatReq{}, HeartbeatResp{},
		WriteBlockReq{}, WriteBlockResp{},
		ReadBlockReq{}, ReadBlockResp{},
		DeleteBlocksReq{}, DeleteBlocksResp{},
		PullBlockReq{}, PullBlockResp{},
		VerifyBlockReq{}, VerifyBlockResp{},
		BlockReportReq{}, BlockReportResp{},
		MigrateBatch{}, MigrateBatchResp{},
		EvictBatch{}, EvictBatchResp{},
		DemoteBatch{}, DemoteBatchResp{},
		BlockReadReq{}, BlockReadResp{},
		ReadNotifyBatch{}, ReadNotifyBatchResp{},
		EpochReq{}, EpochResp{},
		CorruptReplicaReq{}, CorruptReplicaResp{},
	} {
		transport.RegisterType(v)
	}
	// Bulk block messages additionally take the TCP binary fast path;
	// the two that carry a payload are transport.BulkFramers, so their
	// bytes bypass conn scratch (see frame.go). ReadBlockReq rides
	// along: it is tiny, but it precedes every block fetch and its gob
	// round trip showed up in allocation profiles of the read path.
	transport.RegisterFramer[WriteBlockReq, *WriteBlockReq]()
	transport.RegisterFramer[ReadBlockReq, *ReadBlockReq]()
	transport.RegisterFramer[ReadBlockResp, *ReadBlockResp]()
	// Control-plane report messages are framed too: a full block report
	// is a long ID list (a million-block datanode ships ~8 MB of IDs),
	// and at 1000 nodes the per-message gob overhead of even the small
	// delta heartbeats is what the namenode spends its receive CPU on.
	transport.RegisterFramer[HeartbeatReq, *HeartbeatReq]()
	transport.RegisterFramer[BlockReportReq, *BlockReportReq]()
}
