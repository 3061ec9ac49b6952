// Package namenode implements the file-system master: the namespace,
// block manager, datanode registry, and the embedded Ignem master.
package namenode

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/ignem"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Config configures a NameNode.
type Config struct {
	// Addr is the address the namenode listens on.
	Addr string
	// DefaultBlockSize applies to files created without one.
	DefaultBlockSize int64
	// DefaultReplication applies to files created without one.
	DefaultReplication int
	// HeartbeatExpiry is how long after the last heartbeat a datanode is
	// declared dead. Default 10s.
	HeartbeatExpiry time.Duration
	// ExpirySweepInterval is how often dead datanodes are detected.
	// Default 1s.
	ExpirySweepInterval time.Duration
	// Seed drives replica placement and the Ignem master's replica
	// choice.
	Seed int64
	// ReplicationSweepInterval is how often under-replicated blocks are
	// repaired after node failures. Zero disables re-replication.
	// Default 5s.
	ReplicationSweepInterval time.Duration
	// Racks maps datanode address to rack name. When non-empty,
	// placement follows HDFS's default rack-aware policy: the second
	// replica goes to a different rack than the first, and the third to
	// the second replica's rack. An empty map means flat placement.
	Racks map[string]string
	// WALBackend, when set, gives the Ignem master a migration
	// write-ahead log: planning becomes durable-before-send, transport-
	// failed command batches are retried from the journal instead of
	// dropped, and RecoverMaster resumes in-flight migrations after a
	// master restart without bumping the epoch (so slave pins survive).
	// Takes precedence over WALDir. Nil (with an empty WALDir) disables
	// journaling.
	WALBackend wal.Backend
	// WALDir, when non-empty and WALBackend is nil, persists the
	// migration WAL to a file ("ignem-master.wal") under this directory.
	WALDir string
	// WALRetryInterval paces the journal's retry pump (re-sending
	// transport-failed batches). Default 1s.
	WALRetryInterval time.Duration
	// MigrationPolicy selects the Ignem master's tier-placement policy:
	// "paper" (or empty — the default smallest-job-first-to-RAM),
	// "ladder", or "popularity". See ignem.PolicyByName. With the empty
	// default and zero TierBudgets the migration plane is bit-identical
	// to the pre-ladder master.
	MigrationPolicy string
	// TierBudgets caps cluster-wide fast-tier residency. A zero SSD
	// budget means the cluster has no flash rung.
	TierBudgets ignem.TierBudgets
	// ReportIntake bounds how many full-inventory reconciles (register
	// and block-report handling) may run concurrently; reports beyond
	// the bound are rejected with dfs.ErrBusy and the datanode retries
	// with jittered backoff. This is the admission control that keeps a
	// reconnect storm of full reports from stalling namespace RPCs
	// behind a convoy of full-table scans. 0 selects the default of 2;
	// negative disables the bound. Delta heartbeats are never gated —
	// they are O(delta) cheap.
	ReportIntake int
}

func (c *Config) setDefaults() {
	if c.DefaultBlockSize <= 0 {
		c.DefaultBlockSize = dfs.DefaultBlockSize
	}
	if c.DefaultReplication <= 0 {
		c.DefaultReplication = dfs.DefaultReplication
	}
	if c.HeartbeatExpiry <= 0 {
		c.HeartbeatExpiry = 10 * time.Second
	}
	if c.ExpirySweepInterval <= 0 {
		c.ExpirySweepInterval = time.Second
	}
	if c.ReplicationSweepInterval == 0 {
		c.ReplicationSweepInterval = 5 * time.Second
	}
}

type dnInfo struct {
	addr     string
	lastSeen time.Time
	alive    bool
	client   *transport.Client
	// nextSeq is the report sequence number the namenode expects next
	// from this datanode; a heartbeat arriving with any other non-zero
	// Seq means a delta was lost (or reordered) and the incremental view
	// may be stale. Zero until the datanode opts into sequencing.
	nextSeq uint64
	// epoch identifies the full-inventory snapshot the datanode's deltas
	// extend; bumped by every register/full report.
	epoch uint64
	// ssdBytes is the flash occupancy this datanode last reported; kept
	// so the cluster-wide occupancy gauge can be maintained by delta.
	ssdBytes int64
}

// NameNode is the file-system master process. Start it with Start, stop
// it with Close. All namespace and block state lives behind ns; the
// NameNode itself owns only the datanode registry, the RPC surface, and
// the embedded Ignem master.
type NameNode struct {
	clock    simclock.Clock
	net      transport.Network
	cfg      Config
	server   *transport.Server
	listener transport.Listener
	master   *ignem.Master
	ns       *memNamespace
	// walLog is the migration WAL handed to the Ignem master, nil when
	// journaling is off; the namenode owns its lifecycle.
	walLog *wal.Log

	// tierErr records a bad tier configuration (unknown policy name)
	// from New; Start surfaces it.
	tierErr error

	// stateMu guards closed.
	stateMu sync.Mutex
	closed  bool

	// dnmu guards the datanode registry: the datanodes map, every
	// dnInfo's fields, and liveCache. Splitting it from the namespace
	// locks keeps heartbeats and registrations off the metadata path.
	// dnmu nests innermost: it is only ever acquired under namespace
	// locks (via placeTargets and Resolve), never the reverse.
	dnmu      sync.RWMutex
	datanodes map[string]*dnInfo
	// liveCache is the sorted live-address list placement shuffles; nil
	// means stale (rebuilt on next use). Maintaining it on membership
	// and liveness changes takes the per-allocation O(n log n) sort off
	// the placement path — at 1000 nodes that sort dominated placeTargets.
	liveCache []string

	// intake is the bounded report-admission gate (see
	// Config.ReportIntake); nil means unbounded.
	intake chan struct{}

	metrics nnMetrics
}

// nnMetrics are the NameNode's control-plane counters. They are written
// on hot paths, so everything is an atomic counter/gauge from
// internal/metrics; Stats snapshots them.
type nnMetrics struct {
	heartbeats     metrics.Counter // heartbeat RPCs processed
	fullReports    metrics.Counter // full-inventory reconciles (register + blockReport)
	deltaAdded     metrics.Counter // block IDs added via incremental reports
	deltaRemoved   metrics.Counter // block IDs removed via incremental reports
	reportBytes    metrics.Counter // estimated wire bytes of report intake
	resyncRequests metrics.Counter // NeedFullReport responses issued
	busyRejects    metrics.Counter // reports rejected with dfs.ErrBusy
	sweeps         metrics.Counter // expiry sweeps run
	sweepLastNs    metrics.Gauge   // duration of the latest expiry sweep
	corruptReports metrics.Counter // corrupt-replica reports from datanodes
	ssdOccupancy   metrics.Gauge   // cluster flash occupancy per slave heartbeats
}

// Stats is a point-in-time snapshot of the NameNode's control-plane
// counters.
type Stats struct {
	Heartbeats         int64
	FullReports        int64
	DeltaBlocksAdded   int64
	DeltaBlocksRemoved int64
	ReportBytes        int64
	ResyncRequests     int64
	BusyRejects        int64
	ExpirySweeps       int64
	LastSweepNanos     int64
	// CorruptReports counts corrupt-replica reports received from
	// datanode read paths and scrubbers; each drops the bad replica from
	// the location map so the replication sweep restores a healthy copy.
	CorruptReports int64
	// SSDOccupancyBytes is the cluster-wide flash occupancy as last
	// reported by slave heartbeats (0 when the tier is disabled).
	SSDOccupancyBytes int64
	// Tiers is the Ignem master's tier-ladder accounting: per-tier
	// reserved bytes, promotions by destination, climbs, demotions, and
	// budget rejections. Zero-valued for a default (pin-in-RAM) master.
	Tiers ignem.TierCounters
}

// Stats snapshots the control-plane counters.
func (nn *NameNode) Stats() Stats {
	return Stats{
		Heartbeats:         nn.metrics.heartbeats.Load(),
		FullReports:        nn.metrics.fullReports.Load(),
		DeltaBlocksAdded:   nn.metrics.deltaAdded.Load(),
		DeltaBlocksRemoved: nn.metrics.deltaRemoved.Load(),
		ReportBytes:        nn.metrics.reportBytes.Load(),
		ResyncRequests:     nn.metrics.resyncRequests.Load(),
		BusyRejects:        nn.metrics.busyRejects.Load(),
		ExpirySweeps:       nn.metrics.sweeps.Load(),
		LastSweepNanos:     nn.metrics.sweepLastNs.Load(),
		CorruptReports:     nn.metrics.corruptReports.Load(),
		SSDOccupancyBytes:  nn.metrics.ssdOccupancy.Load(),
		Tiers:              nn.master.Stats().Tiers,
	}
}

// reportWireBytes estimates the control-plane wire cost of a report
// carrying n block IDs: a fixed per-message overhead plus the nominal 8
// bytes per ID. An estimator (rather than encoding every message) keeps
// the accounting off the wire path; the full-vs-incremental comparison
// only needs the per-ID cost to be charged consistently on both sides.
func reportWireBytes(n int) int64 { return 64 + 8*int64(n) }

// New creates a NameNode (not yet serving).
func New(clock simclock.Clock, net transport.Network, cfg Config) *NameNode {
	cfg.setDefaults()
	nn := &NameNode{
		clock:     clock,
		net:       net,
		cfg:       cfg,
		datanodes: make(map[string]*dnInfo),
	}
	if cfg.ReportIntake >= 0 {
		depth := cfg.ReportIntake
		if depth == 0 {
			depth = 2
		}
		nn.intake = make(chan struct{}, depth)
	}
	nn.ns = newMemNamespace(cfg.Seed, nn.placeTargets)
	// Seed+1: the master's replica-choice stream must not replay the
	// namespace's placement draws.
	nn.master = ignem.NewMaster(nn, nn, cfg.Seed+1)
	if cfg.MigrationPolicy != "" || cfg.TierBudgets != (ignem.TierBudgets{}) {
		// New can't return an error without breaking every caller; an
		// unknown policy name surfaces when Start reports it.
		nn.tierErr = nn.master.ConfigureTiers(cfg.MigrationPolicy, cfg.TierBudgets)
	}
	return nn
}

// attachWAL opens the configured migration WAL (if any) and hands it to
// the Ignem master. Called from Start so the retry pump's goroutine
// spawns alongside the other serving loops.
func (nn *NameNode) attachWAL() error {
	be := nn.cfg.WALBackend
	if be == nil {
		if nn.cfg.WALDir == "" {
			return nil
		}
		fb, err := wal.OpenFile(nn.cfg.WALDir, "ignem-master.wal")
		if err != nil {
			return fmt.Errorf("namenode: open migration WAL: %w", err)
		}
		be = fb
	}
	nn.walLog = wal.New(be)
	nn.master.AttachJournal(nn.clock, nn.walLog, nn.cfg.WALRetryInterval)
	return nil
}

// RecoverMaster rebuilds the Ignem master's state from the migration
// WAL, resuming in-flight migrations after a master crash. Unlike
// RestartMaster it does NOT bump the epoch or broadcast purges: slaves
// keep their pins, and undelivered command batches are re-sent
// idempotently from the journal. The replay is reconciled against the
// namespace's pin side tables, which survive the master crash and
// reflect pin/unpin deltas whose journal appends died with the old
// master.
func (nn *NameNode) RecoverMaster() error {
	return nn.master.RecoverFromJournalReconciled(func(id dfs.BlockID, addr string) (ram, ssd bool) {
		ramHolders, ssdHolders := nn.ns.FastTierHolders(id)
		return containsAddr(ramHolders, addr), containsAddr(ssdHolders, addr)
	})
}

func containsAddr(list []string, addr string) bool {
	for _, a := range list {
		if a == addr {
			return true
		}
	}
	return false
}

// Start binds the RPC server and begins serving. It also starts the
// datanode-expiry sweeper.
func (nn *NameNode) Start() error {
	if nn.tierErr != nil {
		return fmt.Errorf("namenode: %w", nn.tierErr)
	}
	l, err := nn.net.Listen(nn.cfg.Addr)
	if err != nil {
		return fmt.Errorf("namenode: %w", err)
	}
	s := transport.NewServer(nn.clock)
	s.Handle("nn.create", wrap(nn.handleCreate))
	s.Handle("nn.addBlock", wrap(nn.handleAddBlock))
	s.Handle("nn.addBlocks", wrap(nn.handleAddBlocks))
	s.Handle("nn.retargetBlock", wrap(nn.handleRetargetBlock))
	s.Handle("nn.complete", wrap(nn.handleComplete))
	s.Handle("nn.getInfo", wrap(nn.handleGetInfo))
	s.Handle("nn.getLocations", wrap(nn.handleGetLocations))
	s.Handle("nn.delete", wrap(nn.handleDelete))
	s.Handle("nn.list", wrap(nn.handleList))
	s.Handle("nn.migrate", wrap(nn.handleMigrate))
	s.Handle("nn.evict", wrap(nn.handleEvict))
	s.Handle("nn.blockRead", wrap(nn.handleBlockRead))
	s.Handle("nn.register", wrap(nn.handleRegister))
	s.Handle("nn.blockReport", wrap(nn.handleBlockReport))
	s.Handle("nn.heartbeat", wrap(nn.handleHeartbeat))
	s.Handle("nn.epoch", wrap(nn.handleEpoch))
	s.Handle("nn.corruptReplica", wrap(nn.handleCorruptReplica))
	s.ServeBackground(l)
	nn.server = s
	nn.listener = l
	if err := nn.attachWAL(); err != nil {
		nn.Close()
		return err
	}
	nn.clock.Go(nn.expiryLoop)
	if nn.cfg.ReplicationSweepInterval > 0 {
		nn.clock.Go(nn.replicationLoop)
	}
	return nil
}

// wrap adapts a typed handler to the transport's HandlerFunc.
func wrap[Req, Resp any](fn func(Req) (Resp, error)) transport.HandlerFunc {
	return func(arg any) (any, error) {
		req, ok := arg.(Req)
		if !ok {
			var want Req
			return nil, fmt.Errorf("namenode: bad request type %T, want %T", arg, want)
		}
		return fn(req)
	}
}

// Close stops serving and disconnects from all datanodes.
func (nn *NameNode) Close() {
	nn.stateMu.Lock()
	nn.closed = true
	nn.stateMu.Unlock()
	nn.dnmu.Lock()
	clients := make([]*transport.Client, 0, len(nn.datanodes))
	for _, dn := range nn.datanodes {
		if dn.client != nil {
			clients = append(clients, dn.client)
		}
	}
	nn.dnmu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	if nn.listener != nil {
		nn.listener.Close()
	}
	if nn.server != nil {
		nn.server.Close()
	}
	nn.master.StopJournal()
	if nn.walLog != nil {
		nn.walLog.Close()
	}
}

func (nn *NameNode) isClosed() bool {
	nn.stateMu.Lock()
	defer nn.stateMu.Unlock()
	return nn.closed
}

// Master exposes the embedded Ignem master (for failure-injection tests
// and the cluster harness).
func (nn *NameNode) Master() *ignem.Master { return nn.master }

// RestartMaster simulates an Ignem master failure and recovery: the new
// master starts with an empty state and a new epoch, and the epoch bump
// is broadcast to every live slave so they purge stale reference lists
// immediately (the paper broadcasts the new master's address to all
// servers; slaves reset to match the new master's empty state).
func (nn *NameNode) RestartMaster() {
	nn.master.Restart()
	epoch := nn.master.Epoch()
	for _, addr := range nn.LiveDataNodes() {
		// Best effort: an unreachable slave purges lazily when it sees
		// the next new-epoch command batch.
		_ = nn.SendEvict(addr, dfs.EvictBatch{Epoch: epoch})
	}
}

// handleEpoch reports the Ignem master's current epoch. Revived slaves
// probe it during re-registration so stale old-epoch pins reconcile
// immediately instead of waiting for the next epoch broadcast.
func (nn *NameNode) handleEpoch(dfs.EpochReq) (dfs.EpochResp, error) {
	return dfs.EpochResp{Epoch: nn.master.Epoch()}, nil
}

// ---- namespace handlers ----

func (nn *NameNode) handleCreate(req dfs.CreateReq) (dfs.CreateResp, error) {
	if req.Path == "" {
		return dfs.CreateResp{}, fmt.Errorf("namenode: empty path")
	}
	bs := req.BlockSize
	if bs <= 0 {
		bs = nn.cfg.DefaultBlockSize
	}
	rep := req.Replication
	if rep <= 0 {
		rep = nn.cfg.DefaultReplication
	}
	if err := nn.ns.Create(req.Path, bs, rep); err != nil {
		return dfs.CreateResp{}, err
	}
	return dfs.CreateResp{}, nil
}

func (nn *NameNode) handleAddBlock(req dfs.AddBlockReq) (dfs.AddBlockResp, error) {
	var sums []uint32
	if req.Checksum != 0 {
		sums = []uint32{req.Checksum}
	}
	located, err := nn.ns.Allocate(req.Path, []int64{req.Size}, sums, req.Exclude, req.ReqID, false)
	if err != nil {
		return dfs.AddBlockResp{}, err
	}
	return dfs.AddBlockResp{Located: located[0]}, nil
}

// handleAddBlocks allocates a window of blocks under one namespace-lock
// acquisition. Placement is drawn per block in request order, so a batch
// yields the same targets the equivalent addBlock sequence would.
// Validation is all-or-nothing: a bad size anywhere rejects the batch
// before any block is allocated.
func (nn *NameNode) handleAddBlocks(req dfs.AddBlocksReq) (dfs.AddBlocksResp, error) {
	if len(req.Sizes) == 0 {
		return dfs.AddBlocksResp{}, fmt.Errorf("namenode: addBlocks with no sizes")
	}
	if len(req.Checksums) != 0 && len(req.Checksums) != len(req.Sizes) {
		return dfs.AddBlocksResp{}, fmt.Errorf("namenode: addBlocks with %d checksums for %d sizes", len(req.Checksums), len(req.Sizes))
	}
	located, err := nn.ns.Allocate(req.Path, req.Sizes, req.Checksums, req.Exclude, req.ReqID, true)
	if err != nil {
		return dfs.AddBlocksResp{}, err
	}
	return dfs.AddBlocksResp{Located: located}, nil
}

// handleRetargetBlock replaces an allocated block's target set with a
// fresh placement that avoids the excluded nodes, preserving the block's
// ID and file offset. The writer retries the same block on the new
// targets, so the file's block order is unaffected even when later
// blocks are already in flight. Replicas that did land on old targets
// are reconciled away (or kept as benign over-replication) by block
// reports. Safe to retry: re-picking targets twice costs extra rng
// draws but allocates nothing.
func (nn *NameNode) handleRetargetBlock(req dfs.RetargetBlockReq) (dfs.RetargetBlockResp, error) {
	located, err := nn.ns.Retarget(req.Path, req.Block, req.Exclude)
	if err != nil {
		return dfs.RetargetBlockResp{}, err
	}
	return dfs.RetargetBlockResp{Located: located}, nil
}

// handleCorruptReplica processes a datanode's report that one of its
// replicas failed checksum verification (on read, migrate-copy, or a
// scrub sweep). The replica is dropped from the location map — the
// datanode already deleted its copy — which makes the block
// under-replicated, so the next replication sweep pulls a fresh copy
// from a healthy holder.
func (nn *NameNode) handleCorruptReplica(req dfs.CorruptReplicaReq) (dfs.CorruptReplicaResp, error) {
	nn.metrics.corruptReports.Add(1)
	nn.ns.ApplyReplicaDeltas(req.Addr, nil, []dfs.BlockID{req.Block})
	return dfs.CorruptReplicaResp{}, nil
}

func (nn *NameNode) handleComplete(req dfs.CompleteReq) (dfs.CompleteResp, error) {
	if err := nn.ns.Complete(req.Path); err != nil {
		return dfs.CompleteResp{}, err
	}
	return dfs.CompleteResp{}, nil
}

func (nn *NameNode) handleGetInfo(req dfs.GetInfoReq) (dfs.GetInfoResp, error) {
	info, err := nn.ns.Info(req.Path)
	if err != nil {
		return dfs.GetInfoResp{}, err
	}
	return dfs.GetInfoResp{Info: info}, nil
}

func (nn *NameNode) handleGetLocations(req dfs.GetLocationsReq) (dfs.GetLocationsResp, error) {
	blocks, err := nn.Resolve(req.Path)
	if err != nil {
		return dfs.GetLocationsResp{}, err
	}
	if req.Job != "" {
		for i := range blocks {
			addr := nn.master.AssignedReplica(req.Job, blocks[i].Block.ID)
			if addr == "" {
				continue
			}
			// Only report the assignment while the replica is live.
			for _, n := range blocks[i].Nodes {
				if n == addr {
					blocks[i].Assigned = addr
					break
				}
			}
		}
	}
	return dfs.GetLocationsResp{Blocks: blocks}, nil
}

func (nn *NameNode) handleDelete(req dfs.DeleteReq) (dfs.DeleteResp, error) {
	toDelete, err := nn.ns.Delete(req.Path)
	if err != nil {
		return dfs.DeleteResp{}, err
	}
	// Best effort: a dead datanode's replicas die with it anyway.
	for addr, ids := range toDelete {
		c, err := nn.slaveClient(addr)
		if err != nil {
			continue
		}
		_, _ = transport.Call[dfs.DeleteBlocksResp](c, "dn.deleteBlocks", dfs.DeleteBlocksReq{Blocks: ids})
	}
	return dfs.DeleteResp{}, nil
}

func (nn *NameNode) handleList(req dfs.ListReq) (dfs.ListResp, error) {
	return dfs.ListResp{Files: nn.ns.List(req.Prefix)}, nil
}

func (nn *NameNode) handleMigrate(req dfs.MigrateReq) (dfs.MigrateResp, error) {
	return nn.master.Migrate(req)
}

func (nn *NameNode) handleEvict(req dfs.EvictReq) (dfs.EvictResp, error) {
	return nn.master.Evict(req)
}

// handleBlockRead ingests a client's batched cache-hit notification and
// relays it to the Ignem master, which forwards each block to the slave
// holding its migrated replica. Always succeeds: a notification for an
// unknown job or block simply has no references to release.
func (nn *NameNode) handleBlockRead(req dfs.BlockReadReq) (dfs.BlockReadResp, error) {
	nn.master.NotifyRead(req.Job, req.Blocks)
	return dfs.BlockReadResp{}, nil
}

// ---- replica placement ----

// placeTargets picks up to rep distinct live datanodes avoiding the
// excluded addresses, drawing randomness from the caller's rng stream
// (the namespace's placement rng). With rack information it
// applies HDFS's default policy; otherwise placement is a seeded random
// choice. The exclusion filter runs after the seeded shuffle, so calls
// with no exclusions draw the rng exactly as they always have (seeded
// figures stay bit-identical); an exclusion list that would leave no
// candidates is ignored rather than failing the allocation — better a
// replica on a suspect node than none at all. Takes dnmu (read) itself;
// the caller holds the namespace and rng locks.
func (nn *NameNode) placeTargets(rng *rand.Rand, rep int, exclude []string) []string {
	cached := nn.liveSorted()
	// Copy before shuffling: the cache is shared. The base order is
	// sorted, so the seeded shuffle draws depend only on the live set.
	live := make([]string, len(cached))
	copy(live, cached)
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	if len(exclude) > 0 {
		ex := make(map[string]bool, len(exclude))
		for _, a := range exclude {
			ex[a] = true
		}
		kept := make([]string, 0, len(live))
		for _, a := range live {
			if !ex[a] {
				kept = append(kept, a)
			}
		}
		if len(kept) > 0 {
			live = kept
		}
	}
	if rep > len(live) {
		rep = len(live)
	}
	if len(nn.cfg.Racks) == 0 || rep < 2 {
		return live[:rep]
	}
	return nn.rackAwareTargets(live, rep)
}

// rackAwareTargets applies the HDFS default placement: first replica
// anywhere, second on a different rack, third on the second's rack,
// the rest wherever distinct nodes remain.
func (nn *NameNode) rackAwareTargets(shuffled []string, rep int) []string {
	rackOf := func(addr string) string { return nn.cfg.Racks[addr] }
	targets := []string{shuffled[0]}
	used := map[string]bool{shuffled[0]: true}

	pick := func(want func(addr string) bool) bool {
		for _, a := range shuffled {
			if !used[a] && want(a) {
				targets = append(targets, a)
				used[a] = true
				return true
			}
		}
		return false
	}

	// Second replica: off the first rack if possible.
	firstRack := rackOf(targets[0])
	if len(targets) < rep {
		if !pick(func(a string) bool { return rackOf(a) != firstRack }) {
			pick(func(string) bool { return true })
		}
	}
	// Third replica: on the second replica's rack if possible.
	if len(targets) < rep && len(targets) >= 2 {
		secondRack := rackOf(targets[1])
		if !pick(func(a string) bool { return rackOf(a) == secondRack }) {
			pick(func(string) bool { return true })
		}
	}
	// Remaining replicas: any distinct node.
	for len(targets) < rep {
		if !pick(func(string) bool { return true }) {
			break
		}
	}
	return targets
}

// ---- datanode registry ----

// acquireIntake claims a slot on the bounded report-admission gate; a
// false return means the caller must answer dfs.ErrBusy. Non-blocking
// by design: pushing back immediately (and letting the datanode retry
// with jittered backoff) is what prevents a reconnect storm from
// queueing an unbounded convoy of full-table reconciles.
func (nn *NameNode) acquireIntake() bool {
	if nn.intake == nil {
		return true
	}
	select {
	case nn.intake <- struct{}{}:
		return true
	default:
		nn.metrics.busyRejects.Inc()
		return false
	}
}

func (nn *NameNode) releaseIntake() {
	if nn.intake != nil {
		<-nn.intake
	}
}

func (nn *NameNode) handleRegister(req dfs.RegisterReq) (dfs.RegisterResp, error) {
	if !nn.acquireIntake() {
		return dfs.RegisterResp{}, dfs.ErrBusy
	}
	defer nn.releaseIntake()
	nn.dnmu.Lock()
	dn := nn.datanodes[req.Addr]
	if dn == nil {
		dn = &dnInfo{addr: req.Addr}
		nn.datanodes[req.Addr] = dn
	}
	stale := dn.client
	dn.client = nil
	dn.alive = true
	dn.lastSeen = nn.clock.Now()
	if req.Seq > 0 {
		// A register is a full snapshot: it re-anchors the delta
		// sequence and starts the epoch its deltas will extend.
		dn.nextSeq = req.Seq + 1
		dn.epoch = req.Epoch
	}
	nn.liveCache = nil
	nn.dnmu.Unlock()
	nn.metrics.fullReports.Inc()
	nn.metrics.reportBytes.Add(reportWireBytes(len(req.Blocks)))
	nn.ns.Reconcile(req.Addr, req.Blocks)
	if stale != nil {
		stale.Close()
	}
	return dfs.RegisterResp{}, nil
}

func (nn *NameNode) handleBlockReport(req dfs.BlockReportReq) (dfs.BlockReportResp, error) {
	nn.dnmu.RLock()
	dn := nn.datanodes[req.Addr]
	nn.dnmu.RUnlock()
	if dn == nil {
		return dfs.BlockReportResp{}, fmt.Errorf("namenode: block report from unregistered %s", req.Addr)
	}
	if !nn.acquireIntake() {
		return dfs.BlockReportResp{}, dfs.ErrBusy
	}
	defer nn.releaseIntake()
	nn.dnmu.Lock()
	// A full report proves the node is alive just as well as a heartbeat.
	if !dn.alive {
		nn.liveCache = nil
	}
	dn.alive = true
	dn.lastSeen = nn.clock.Now()
	if req.Seq > 0 {
		dn.nextSeq = req.Seq + 1
		dn.epoch = req.Epoch
	}
	nn.dnmu.Unlock()
	nn.metrics.fullReports.Inc()
	nn.metrics.reportBytes.Add(reportWireBytes(len(req.Blocks)))
	nn.ns.Reconcile(req.Addr, req.Blocks)
	return dfs.BlockReportResp{}, nil
}

func (nn *NameNode) handleHeartbeat(req dfs.HeartbeatReq) (dfs.HeartbeatResp, error) {
	nn.dnmu.Lock()
	dn := nn.datanodes[req.Addr]
	if dn == nil {
		nn.dnmu.Unlock()
		return dfs.HeartbeatResp{}, fmt.Errorf("namenode: heartbeat from unregistered %s", req.Addr)
	}
	if !dn.alive {
		nn.liveCache = nil
	}
	dn.alive = true
	dn.lastSeen = nn.clock.Now()
	var needFull, staleEpoch bool
	if req.SSDBytes != dn.ssdBytes {
		nn.metrics.ssdOccupancy.Add(req.SSDBytes - dn.ssdBytes)
		dn.ssdBytes = req.SSDBytes
	}
	if req.Seq > 0 {
		if dn.nextSeq != 0 && req.Seq != dn.nextSeq {
			// A delta went missing (lost heartbeat, reordered retry):
			// the incremental view may have diverged, so ask for a full
			// snapshot. The deltas that DID arrive still apply — they
			// only ever make the view fresher.
			needFull = true
		}
		if req.Epoch != dn.epoch {
			needFull = true
			// Deltas from an older snapshot than the one already
			// reconciled could resurrect state the resync removed; skip
			// them entirely.
			staleEpoch = req.Epoch < dn.epoch
		}
		dn.nextSeq = req.Seq + 1
	}
	nn.dnmu.Unlock()
	nn.metrics.heartbeats.Inc()
	nn.metrics.reportBytes.Add(reportWireBytes(
		len(req.Pinned) + len(req.Unpinned) + len(req.SSDPinned) + len(req.SSDUnpinned) +
			len(req.Added) + len(req.Removed)))
	if needFull {
		nn.metrics.resyncRequests.Inc()
	}
	if staleEpoch {
		return dfs.HeartbeatResp{NeedFullReport: true}, nil
	}
	// The steady-state heartbeat carries no deltas; only touch the
	// namespace locks when there is state to record.
	if len(req.Pinned)+len(req.Unpinned) > 0 {
		nn.ns.PinDeltas(req.Addr, req.Pinned, req.Unpinned)
		// Confirmed pins advance the migration WAL's state machine to
		// swapped/checked (no-op without a journal): the slave verified
		// and pinned these blocks, so recovery won't re-send them.
		nn.master.NotePinned(req.Addr, dfs.TierRAM, req.Pinned)
		// Confirmed unpins release the master's RAM-budget charge (no-op
		// without tier budgets).
		nn.master.NoteUnpinned(req.Addr, dfs.TierRAM, req.Unpinned)
	}
	if len(req.SSDPinned)+len(req.SSDUnpinned) > 0 {
		nn.ns.SSDDeltas(req.Addr, req.SSDPinned, req.SSDUnpinned)
		// A confirmed flash pin is what triggers the ladder's second
		// rung (the policy's climb decision); a confirmed flash unpin
		// releases the SSD-budget charge.
		nn.master.NotePinned(req.Addr, dfs.TierSSD, req.SSDPinned)
		nn.master.NoteUnpinned(req.Addr, dfs.TierSSD, req.SSDUnpinned)
	}
	if len(req.Added)+len(req.Removed) > 0 {
		nn.ns.ApplyReplicaDeltas(req.Addr, req.Added, req.Removed)
		nn.metrics.deltaAdded.Add(int64(len(req.Added)))
		nn.metrics.deltaRemoved.Add(int64(len(req.Removed)))
	}
	return dfs.HeartbeatResp{NeedFullReport: needFull}, nil
}

// expiryLoop marks datanodes dead when their heartbeats stop; the block
// manager then reports only live replica locations, which is how the
// Ignem master sees "an updated view with only live locations".
//
// The scan runs under the registry READ lock — at 1000 datanodes a
// write-locked scan would stall every heartbeat once a second — and
// only the (rare, usually empty) suspect list is re-checked and marked
// under the write lock.
func (nn *NameNode) expiryLoop() {
	for {
		nn.clock.Sleep(nn.cfg.ExpirySweepInterval)
		if nn.isClosed() {
			return
		}
		// Sweep duration is measured in wall time: it meters real scan
		// cost, and on the virtual clock the whole sweep is instantaneous.
		start := time.Now()
		now := nn.clock.Now()
		var suspects []*dnInfo
		nn.dnmu.RLock()
		for _, dn := range nn.datanodes {
			if dn.alive && now.Sub(dn.lastSeen) > nn.cfg.HeartbeatExpiry {
				suspects = append(suspects, dn)
			}
		}
		nn.dnmu.RUnlock()
		var died []string
		if len(suspects) > 0 {
			nn.dnmu.Lock()
			for _, dn := range suspects {
				// Re-check under the write lock: a heartbeat may have
				// revived the node between the two lock acquisitions.
				if dn.alive && now.Sub(dn.lastSeen) > nn.cfg.HeartbeatExpiry {
					dn.alive = false
					died = append(died, dn.addr)
					// The dead node's flash residency is gone with it.
					if dn.ssdBytes != 0 {
						nn.metrics.ssdOccupancy.Add(-dn.ssdBytes)
						dn.ssdBytes = 0
					}
				}
			}
			if len(died) > 0 {
				nn.liveCache = nil
			}
			nn.dnmu.Unlock()
		}
		nn.metrics.sweeps.Inc()
		nn.metrics.sweepLastNs.Set(time.Since(start).Nanoseconds())
		if len(died) == 0 {
			continue
		}
		// Drop the dead nodes' pinned state: their memory is gone.
		nn.ns.DropPinned(died)
	}
}

// replicationLoop repairs under-replicated blocks: for each block with
// fewer live replicas than its file requested, a live non-holder is told
// to pull a copy from a surviving holder.
func (nn *NameNode) replicationLoop() {
	for {
		nn.clock.Sleep(nn.cfg.ReplicationSweepInterval)
		if nn.isClosed() {
			return
		}
		live := map[string]bool{}
		nn.dnmu.RLock()
		for addr, dn := range nn.datanodes {
			live[addr] = dn.alive
		}
		nn.dnmu.RUnlock()
		for _, j := range nn.ns.RepairScan(live) {
			j := j
			nn.clock.Go(func() {
				err := nn.pullReplica(j.target, j.source, j.block)
				nn.ns.RepairDone(j.block.ID, j.target, err == nil)
			})
		}
	}
}

// pullReplica asks target to copy block from source.
func (nn *NameNode) pullReplica(target, source string, b dfs.Block) error {
	c, err := nn.slaveClient(target)
	if err != nil {
		return err
	}
	_, err = transport.Call[dfs.PullBlockResp](c, "dn.pullBlock", dfs.PullBlockReq{Block: b, From: source})
	return err
}

// liveSorted returns the cached sorted live-address list, rebuilding it
// if a membership or liveness change invalidated it. The returned slice
// is shared and must not be mutated.
func (nn *NameNode) liveSorted() []string {
	nn.dnmu.RLock()
	cached := nn.liveCache
	nn.dnmu.RUnlock()
	if cached != nil {
		return cached
	}
	nn.dnmu.Lock()
	defer nn.dnmu.Unlock()
	if nn.liveCache == nil {
		live := make([]string, 0, len(nn.datanodes))
		for addr, dn := range nn.datanodes {
			if dn.alive {
				live = append(live, addr)
			}
		}
		sort.Strings(live)
		nn.liveCache = live
	}
	return nn.liveCache
}

// LiveDataNodes returns the addresses of datanodes considered alive.
func (nn *NameNode) LiveDataNodes() []string {
	live := nn.liveSorted()
	out := make([]string, len(live))
	copy(out, live)
	return out
}

// ---- ignem.Resolver ----

// Resolve maps a file to its blocks with live replica locations and
// current migration state. It is the read hot path: the namespace
// returns raw locations under its read lock, and liveness is
// filtered here under the registry read lock, so concurrent lookups
// never serialize.
func (nn *NameNode) Resolve(path string) ([]dfs.LocatedBlock, error) {
	raw, err := nn.ns.Resolve(path)
	if err != nil {
		return nil, err
	}
	out := make([]dfs.LocatedBlock, 0, len(raw))
	nn.dnmu.RLock()
	defer nn.dnmu.RUnlock()
	for _, rb := range raw {
		lb := dfs.LocatedBlock{Block: rb.block, Offset: rb.offset, Checksum: rb.checksum}
		for _, addr := range rb.nodes {
			if dn := nn.datanodes[addr]; dn != nil && dn.alive {
				lb.Nodes = append(lb.Nodes, addr)
			}
		}
		sort.Strings(lb.Nodes)
		for _, addr := range rb.pinned {
			if dn := nn.datanodes[addr]; dn != nil && dn.alive {
				lb.Migrated = append(lb.Migrated, addr)
			}
		}
		sort.Strings(lb.Migrated)
		for _, addr := range rb.onSSD {
			if dn := nn.datanodes[addr]; dn != nil && dn.alive {
				lb.OnSSD = append(lb.OnSSD, addr)
			}
		}
		sort.Strings(lb.OnSSD)
		out = append(out, lb)
	}
	return out, nil
}

// ---- ignem.SlaveLink ----

// SendMigrate pushes a migrate batch to the slave embedded in the
// datanode at addr.
func (nn *NameNode) SendMigrate(addr string, batch dfs.MigrateBatch) error {
	c, err := nn.slaveClient(addr)
	if err != nil {
		return err
	}
	_, err = transport.Call[dfs.MigrateBatchResp](c, "ignem.migrateBatch", batch)
	return err
}

// SendEvict pushes an evict batch to the slave at addr.
func (nn *NameNode) SendEvict(addr string, batch dfs.EvictBatch) error {
	c, err := nn.slaveClient(addr)
	if err != nil {
		return err
	}
	_, err = transport.Call[dfs.EvictBatchResp](c, "ignem.evictBatch", batch)
	return err
}

// SendDemote pushes a demote batch to the slave at addr — the ladder's
// downward arm (ignem.DemoteSender).
func (nn *NameNode) SendDemote(addr string, batch dfs.DemoteBatch) error {
	c, err := nn.slaveClient(addr)
	if err != nil {
		return err
	}
	_, err = transport.Call[dfs.DemoteBatchResp](c, "ignem.demoteBatch", batch)
	return err
}

// SendReadNotify pushes a remote-read notification batch to the slave at
// addr.
func (nn *NameNode) SendReadNotify(addr string, batch dfs.ReadNotifyBatch) error {
	c, err := nn.slaveClient(addr)
	if err != nil {
		return err
	}
	_, err = transport.Call[dfs.ReadNotifyBatchResp](c, "ignem.readNotify", batch)
	return err
}

// slaveClient returns (dialing on demand) the command client for addr.
func (nn *NameNode) slaveClient(addr string) (*transport.Client, error) {
	nn.dnmu.Lock()
	dn := nn.datanodes[addr]
	if dn == nil || !dn.alive {
		nn.dnmu.Unlock()
		return nil, fmt.Errorf("namenode: datanode %s not available", addr)
	}
	if dn.client != nil {
		c := dn.client
		nn.dnmu.Unlock()
		return c, nil
	}
	nn.dnmu.Unlock()

	c, err := transport.Dial(nn.clock, nn.net, addr)
	if err != nil {
		return nil, fmt.Errorf("namenode: dial %s: %w", addr, err)
	}
	nn.dnmu.Lock()
	defer nn.dnmu.Unlock()
	if dn.client != nil { // lost the dial race; keep the winner
		defer c.Close()
		return dn.client, nil
	}
	dn.client = c
	return c, nil
}
