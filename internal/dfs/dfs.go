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
	"reflect"
	"sync"
	"time"

	"repro/internal/bufpool"
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
	return nonZero(crc32.Checksum(data, castagnoli))
}

// nonZero applies Checksum's zero-to-one rule to a payload's CRC32C.
func nonZero(crc uint32) uint32 {
	if crc == 0 {
		return 1
	}
	return crc
}

// landedSum is the checksum of a payload the transport summed as it
// landed (transport.Bulk.Sum, under Checksum's zero-to-one rule), with
// the slice it was taken over. It vouches for a body's Data only while
// Data is that very slice; the zero value vouches for nothing.
type landedSum struct {
	over []byte
	sum  uint32
}

// landed returns what bulk's landing sum says of bulk.Data.
func landed(bulk transport.Bulk) landedSum {
	if !bulk.Summed || len(bulk.Data) == 0 {
		return landedSum{}
	}
	return landedSum{over: bulk.Data, sum: nonZero(bulk.Sum)}
}

// of returns Checksum(data): the landed sum when it was taken over data
// itself, and a full pass over data otherwise.
func (l landedSum) of(data []byte) uint32 {
	if l.sum != 0 && len(data) == len(l.over) && &data[0] == &l.over[0] {
		return l.sum
	}
	return Checksum(data)
}

// JobID identifies a job for migration reference lists, carried on the
// read path exactly as the paper extends HDFS reads.
type JobID string

// Tier ranks storage classes in the migration ladder, coldest first.
// Higher tiers are faster; Ignem promotes blocks upward (HDD→SSD→RAM)
// and never demotes them. It is defined here — not in
// package storage — because migrate commands and heartbeat pin deltas
// carry tier identity on the wire; storage aliases it for device specs.
type Tier int

const (
	// TierHDD is the cold base tier where every block starts. It is
	// never a migration target: a slave drops a MigrateCmd naming it.
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

// Block is block metadata.
type Block struct {
	ID   BlockID
	Size int64
}

// LocatedBlock is a block with its replica locations.
//
// Each replica is ranked by its fastest tier, and only replica holders
// have one: a fast copy is always one of Nodes. Tiers is parallel to
// Nodes, or empty when every replica is at HDD (write-path allocations
// and unpinned blocks). Readers prefer RAM, then SSD, then HDD.
type LocatedBlock struct {
	Block  Block
	Offset int64 // byte offset of this block within the file
	// Nodes are the datanode addresses that hold replicas.
	Nodes []string
	// Tiers[i] is the fastest tier at which Nodes[i] holds the block
	// (pinned in RAM by Ignem, resident on SSD, or HDD). Read it with
	// TierAt.
	Tiers []Tier
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

// TierAt returns the fastest tier of the replica at Nodes[i]: TierHDD
// when Tiers is empty.
func (lb *LocatedBlock) TierAt(i int) Tier {
	if len(lb.Tiers) == 0 {
		return TierHDD
	}
	return lb.Tiers[i]
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
type CreateResp struct{ ack }

// AddBlocksReq allocates the next len(Sizes) blocks of an open file in
// one call, taking the namenode's namespace lock once per request.
// Blocks are appended to the file in Sizes order, and placement draws
// the seeded rng in that same order, so one request for n blocks
// allocates exactly what n one-block requests would. It is the only
// allocation RPC: a writer with a single block in flight sends one size.
type AddBlocksReq struct {
	Path  string
	Sizes []int64 // payload bytes per block (each <= BlockSize)
	// ReqID, when non-zero, makes the allocation idempotent: a retry of
	// the file's most recent allocation (same ReqID) returns the blocks
	// already allocated instead of allocating again, so an RPC retry
	// after a lost reply cannot double-allocate.
	ReqID uint64
	// Checksums are the per-block CRC32Cs, parallel to Sizes, computed
	// by the writing client before allocation. Nil (or any zero entry)
	// means the corresponding block is unchecksummed.
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
// cleaned up once their datanodes report them.
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
type CompleteResp struct{ ack }

// GetInfoReq fetches file metadata.
type GetInfoReq struct{ Path string }

// GetInfoResp returns file metadata.
type GetInfoResp struct{ Info FileInfo }

// GetLocationsReq fetches the block layout of a file, or of the byte
// range [Offset, Offset+Length) of it: HDFS's getBlockLocations(src,
// offset, length). Only blocks overlapping the range are returned;
// Length 0 means "to the end of the file", so the zero range is the
// whole file, and a range starting at or past the end returns no
// blocks. When Job is set, each block is annotated with the replica
// the Ignem master assigned to that job's migration.
type GetLocationsReq struct {
	Path   string
	Job    JobID
	Offset int64
	Length int64
}

// GetLocationsResp returns the requested blocks with live replica
// locations and current migration state.
type GetLocationsResp struct{ Blocks []LocatedBlock }

// DeleteReq removes a file.
type DeleteReq struct{ Path string }

// DeleteResp acknowledges removal.
type DeleteResp struct{ ack }

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
type BlockReadResp struct{ ack }

// RegisterReq is a datanode's full-inventory report, the only one it
// sends. Blocks is everything the datanode currently stores; the
// namenode reconciles its location map against it, so a datanode that
// restarted empty sheds its stale replica entries (re-replication then
// repairs the under-replicated blocks). A register from an unknown
// address adds the datanode; one from a known address is a resync,
// after a NeedFullReport reply or a rejected report.
//
// Seq and Epoch anchor the incremental-report protocol (see
// HeartbeatReq): a register is a snapshot, so it starts a new epoch and
// re-anchors the delta sequence the following heartbeats continue.
type RegisterReq struct {
	Addr   string
	Blocks []BlockID
	Seq    uint64
	Epoch  uint64
}

// RegisterResp acknowledges registration.
type RegisterResp struct{ ack }

// HeartbeatReq is the periodic datanode report. Pinned and Unpinned carry
// the block IDs whose migration state changed since the last heartbeat, so
// the namenode can serve migration-aware locality.
//
// Added and Removed are the incremental block report: the replica IDs
// stored or dropped since the previous report, so the namenode's
// location map stays fresh without the datanode shipping its full
// inventory every reporting period. Seq numbers every report the
// datanode sends (register or heartbeat) from one counter; the namenode
// detects a lost delta as a sequence gap and answers NeedFullReport.
// Epoch identifies the register snapshot the deltas extend — it bumps
// on every register, so a delta from before the latest resync is
// recognizably stale. Seq starts at 1: the namenode rejects a register
// or heartbeat with Seq 0 and changes no state for it.
type HeartbeatReq struct {
	Addr     string
	Pinned   []BlockID
	Unpinned []BlockID
	Seq      uint64
	Epoch    uint64
	Added    []BlockID
	Removed  []BlockID
	// SSDPinned and SSDUnpinned carry the blocks whose SSD-tier
	// residency changed since the last heartbeat, exactly as
	// Pinned/Unpinned do for the RAM tier.
	SSDPinned   []BlockID
	SSDUnpinned []BlockID
}

// TierDeltas returns the heartbeat's residency-delta lists for tier:
// the blocks newly resident and newly released there. TierHDD's are
// the replica deltas, Added and Removed.
func (r *HeartbeatReq) TierDeltas(tier Tier) (in, out *[]BlockID) {
	switch tier {
	case TierRAM:
		return &r.Pinned, &r.Unpinned
	case TierSSD:
		return &r.SSDPinned, &r.SSDUnpinned
	default:
		return &r.Added, &r.Removed
	}
}

// HeartbeatResp acknowledges a heartbeat. NeedFullReport asks the
// datanode to register again with a full snapshot: the namenode saw a
// sequence gap or a stale epoch, so its incremental view may have
// missed a delta.
type HeartbeatResp struct {
	NeedFullReport bool
}

// The three sentinels below are registered with the transport where
// they are declared, so one returned by a remote handler still matches
// errors.Is on the caller's side of either transport (see
// transport.RegisterError).

// ErrBusy is the namenode's admission-control pushback: the report
// intake queue is full, so the full reconcile was rejected before
// touching any namespace lock. Callers back off (with jitter) and
// retry; deltas and namespace RPCs are never rejected with it.
var ErrBusy = transport.RegisterError(errors.New("namenode busy, retry report later"))

// ErrChecksum means a block payload failed CRC32C verification: the
// stored replica (or the bytes in flight) do not match the checksum
// recorded at write time. The client read path treats it like a lost
// replica and fails over to another holder; the serving datanode drops
// the corrupt replica and reports it for re-replication.
var ErrChecksum = transport.RegisterError(errors.New("block checksum mismatch (DFS_CHECKSUM)"))

// ErrBlockLength means a replica returned a payload whose length is not
// the block's recorded size. Readers treat it like ErrChecksum: the
// replica is bad, another holder is tried.
var ErrBlockLength = transport.RegisterError(errors.New("block payload length mismatch"))

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
type CorruptReplicaResp struct{ ack }

// EpochReq asks the namenode for the Ignem master's current epoch. A
// revived datanode sends it during re-registration so its slave can
// reconcile stale pins immediately instead of waiting for the next
// epoch broadcast.
type EpochReq struct{ ack }

// EpochResp returns the master's current epoch.
type EpochResp struct{ Epoch uint64 }

// ---- Datanode RPC schema (methods prefixed "dn.") ----

// WriteBlockReq stores a block replica on a datanode. Exactly one of
// Data or Size describes the payload: Data carries real bytes; Size
// declares a synthetic block used by experiment-scale workloads.
// Pipeline lists the remaining downstream replica targets: the receiving
// datanode stores its copy and forwards the block along the chain, as
// the HDFS write pipeline does, overlapping the forward with its local
// buffer-cache write.
type WriteBlockReq struct {
	Block    Block
	Data     []byte
	Pipeline []string
	// Checksum is the client-computed CRC32C of Data (zero when
	// unchecksummed). Each datanode on the pipeline verifies the
	// payload against it before storing, so a corruption anywhere on
	// the write path fails the write instead of persisting silently.
	Checksum uint32

	// slot is the replica slot Data lies in when the request holds a
	// reference to one: a datanode receives a write straight into the
	// slot its store keeps. Set only by the frame decoder.
	slot *bufpool.Slot
	// sum is Data's checksum as the transport landed it; set only by
	// DecodeHead (see DataSum).
	sum landedSum
}

// Slot implements transport.SlotHolder: the slot Data lies in when the
// request holds a reference to one, and nil otherwise.
func (r WriteBlockReq) Slot() *bufpool.Slot { return r.slot }

// DataSum returns Checksum(Data). A request the transport decoded around
// a payload it summed as the bytes landed returns that sum; any other
// request (one decoded from a whole frame, one built by hand, one whose
// Data was since reassigned) pays a full pass over Data.
func (r WriteBlockReq) DataSum() uint32 { return r.sum.of(r.Data) }

// WireSize charges the network for the payload.
func (r WriteBlockReq) WireSize() int64 {
	if len(r.Data) > 0 {
		return int64(len(r.Data))
	}
	return r.Block.Size
}

// WriteBlockResp acknowledges a replica write.
type WriteBlockResp struct{ ack }

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

	// slot is the arena slot Data lies in when the response holds a
	// reference to one: a datanode serves its stored slot (HoldSlot),
	// and the transport server releases the reference once the reply is
	// sent; a pull receives into a slot of its own (the frame decoder);
	// a client's block-cache hit holds the cache's slot (HoldSlot) until
	// the reader's Release.
	slot *bufpool.Slot

	// pooled marks Data as a bufpool buffer owned by the holder; set
	// only by the frame decoders (see frame.go).
	pooled bool
	// sum is Data's checksum as the transport landed it; set only by
	// DecodeHead (see DataSum).
	sum landedSum
}

// DataSum returns Checksum(Data). A response the transport decoded
// around a payload it summed as the bytes landed returns that sum; any
// other response (one decoded from a whole frame, one built by hand or
// served from the block cache, one whose Data was since reassigned) pays
// a full pass over Data.
func (r ReadBlockResp) DataSum() uint32 { return r.sum.of(r.Data) }

// HoldSlot records that Data lies in s and hands the response the
// caller's reference to it.
func (r *ReadBlockResp) HoldSlot(s *bufpool.Slot) { r.slot = s }

// Slot implements transport.SlotHolder: the slot Data lies in when the
// response holds a reference to one, and nil otherwise.
func (r ReadBlockResp) Slot() *bufpool.Slot { return r.slot }

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
type VerifyBlockResp struct{ ack }

// PullBlockReq tells a datanode to fetch a block replica from a peer
// (re-replication after a node failure).
type PullBlockReq struct {
	Block Block
	From  string
}

// PullBlockResp acknowledges that the replica is now stored locally.
type PullBlockResp struct{ ack }

// DeleteBlocksReq removes block replicas from a datanode.
type DeleteBlocksReq struct{ Blocks []BlockID }

// DeleteBlocksResp acknowledges replica removal.
type DeleteBlocksResp struct{ ack }

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
	// Tier is the target tier of the migration: TierSSD or TierRAM (the
	// paper's pin-in-memory). The master stamps every command with one of
	// the two, and a slave drops a command naming any other tier.
	Tier Tier
}

// MigrateBatch carries a batch of migrate commands (the paper batches
// master→slave RPCs to reduce overhead).
type MigrateBatch struct {
	Epoch uint64
	Cmds  []MigrateCmd
}

// MigrateBatchResp acknowledges a migrate batch.
type MigrateBatchResp struct{ ack }

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
type EvictBatchResp struct{ ack }

// ReadNotifyCmd tells a slave that Job read Block somewhere the
// datanode could not observe (a client cache hit), so the slave applies
// the same reference-list bookkeeping the slave's OnBlockRead would.
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
type ReadNotifyBatchResp struct{ ack }

// The wire types are registered at initialisation, like the sentinel
// errors: the in-memory transport needs the block messages' codec too.
func init() { registerWire() }

// RegisterWire registers every wire type with the transport's frame
// codec (see frame.go and ctlframe.go); init already has, so it is safe.
func RegisterWire() { registerWire() }

// wireTypes lists the registered types in registration order, so the
// round-trip test and the frame fuzzer can cover every one.
var wireTypes []reflect.Type

var registerWire = sync.OnceFunc(func() {
	for _, register := range []func(){
		wire[CreateReq], wire[CreateResp], wire[AddBlocksReq], wire[AddBlocksResp],
		wire[RetargetBlockReq], wire[RetargetBlockResp], wire[CompleteReq], wire[CompleteResp],
		wire[GetInfoReq], wire[GetInfoResp], wire[GetLocationsReq], wire[GetLocationsResp],
		wire[DeleteReq], wire[DeleteResp], wire[ListReq], wire[ListResp],
		wire[MigrateReq], wire[MigrateResp], wire[EvictReq], wire[EvictResp],
		wire[BlockReadReq], wire[BlockReadResp], wire[RegisterReq], wire[RegisterResp],
		wire[HeartbeatReq], wire[HeartbeatResp], wire[CorruptReplicaReq], wire[CorruptReplicaResp],
		wire[EpochReq], wire[EpochResp],
		// The two messages that carry a block payload are
		// transport.BulkFramers, so their bytes bypass conn scratch.
		wire[WriteBlockReq], wire[WriteBlockResp], wire[ReadBlockReq], wire[ReadBlockResp],
		wire[VerifyBlockReq], wire[VerifyBlockResp], wire[PullBlockReq], wire[PullBlockResp],
		wire[DeleteBlocksReq], wire[DeleteBlocksResp], wire[MigrateBatch], wire[MigrateBatchResp],
		wire[EvictBatch], wire[EvictBatchResp], wire[ReadNotifyBatch], wire[ReadNotifyBatchResp],
	} {
		register()
	}
})

// frame registers T with the transport and records it in wireTypes.
func wire[T any, PT interface {
	*T
	transport.Framer
}]() {
	transport.RegisterFramer[T, PT]()
	wireTypes = append(wireTypes, reflect.TypeFor[T]())
}
