package namenode

import (
	"math/rand"

	"repro/internal/dfs"
)

// placeFunc chooses up to rep replica targets avoiding the excluded
// addresses, drawing any randomness from rng. The NameNode provides it
// (placement needs the live-datanode view and the rack map); the
// namespace passes its own seeded placement rng.
type placeFunc func(rng *rand.Rand, rep int, exclude []string) []string

// repairJob is one re-replication pull chosen by RepairScan.
type repairJob struct {
	block  dfs.Block
	source string
	target string
}

// resolvedBlock is one block of a resolved file with raw locations,
// nodes sorted by address; liveness filtering happens in the NameNode
// against the registry, in place: nodes and tiers are the caller's.
type resolvedBlock struct {
	block    dfs.Block
	offset   int64
	checksum uint32 // write-time CRC32C; 0 = unchecksummed
	nodes    []string
	tiers    []dfs.Tier // parallel to nodes; nil when all are at HDD
}

type fileEntry struct {
	info   dfs.FileInfo
	blocks []dfs.Block
	// lastAllocID/lastAlloc cache the file's most recent
	// allocation keyed by the caller's request ID, making allocation
	// retries after a lost reply idempotent. One-deep is enough: a file
	// has one writer and the writer allocates serially, so a retry can
	// only ever be of the latest allocation.
	lastAllocID uint64
	lastAlloc   []dfs.LocatedBlock
}

// blockMeta is one block-map entry. It is a single flat allocation in
// the 48-byte size class: replica locations are a sorted interned-node-
// ID set (see blockmap.go), not a per-block string map, and pin state
// lives in the sparse side pinMap, which together is what lets the
// NameNode track a million blocks in tens of megabytes.
type blockMeta struct {
	size    int64
	nodes   nodeSet // datanodes with a replica
	want    uint16  // the file's replication factor
	healing bool    // a re-replication pull is in flight
	queued  bool    // listed in the replication sweep's suspects
}
