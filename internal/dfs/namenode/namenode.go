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
	// repaired after node failures. Default (zero or negative) 5s.
	ReplicationSweepInterval time.Duration
	// WALBackend, when set, gives the Ignem master a migration
	// write-ahead log: planning becomes durable-before-send, transport-
	// failed command batches are retried from the journal instead of
	// dropped, and RestartMaster resumes in-flight migrations without
	// bumping the epoch (so slave pins survive). Nil disables journaling.
	WALBackend wal.Backend
	// WALRetryInterval paces the journal's retry pump (re-sending
	// transport-failed batches). Default 1s.
	WALRetryInterval time.Duration
	// MigrationPolicy selects the placement policy of the Ignem
	// master's tier plane (see ignem.Master.ConfigureTiers): "paper" (or
	// empty — the plane's one RAM rung, the paper's smallest-job-first
	// pin in RAM) or "ladder" (SSD first, then an SSD→RAM climb). Any
	// other name makes Start fail.
	MigrationPolicy string
	// TierBudgets caps cluster-wide fast-tier residency, for either
	// policy. A zero RAM budget is unlimited; a zero SSD budget means
	// the cluster has no flash rung.
	TierBudgets ignem.TierBudgets
}

// reportIntake bounds how many full-inventory reconciles (registers)
// may run concurrently; reports beyond the bound are rejected with
// dfs.ErrBusy and the datanode retries after a jittered backoff. This is
// the admission control that keeps a reconnect storm of registers from
// stalling namespace RPCs behind a convoy of full-table scans. Delta
// heartbeats are never gated — they are O(delta) cheap.
const reportIntake = 2

func (c *Config) setDefaults() {
	if c.HeartbeatExpiry <= 0 {
		c.HeartbeatExpiry = 10 * time.Second
	}
	if c.ExpirySweepInterval <= 0 {
		c.ExpirySweepInterval = time.Second
	}
	if c.ReplicationSweepInterval <= 0 {
		c.ReplicationSweepInterval = 5 * time.Second
	}
}

type dnInfo struct {
	addr     string
	lastSeen time.Time
	alive    bool
	client   *transport.Client
	// nextSeq is the report sequence number the namenode expects next
	// from this datanode; a heartbeat arriving with any other Seq means
	// a delta was lost (or reordered) and the incremental view may be
	// stale.
	nextSeq uint64
	// epoch identifies the full-inventory snapshot the datanode's deltas
	// extend; bumped by every register.
	epoch uint64
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

	// intake is the bounded report-admission gate (see reportIntake).
	intake chan struct{}

	metrics nnMetrics
}

// nnMetrics are the NameNode's control-plane counters. They are written
// on hot paths, so everything is an atomic counter/gauge from
// internal/metrics; Stats snapshots them.
type nnMetrics struct {
	heartbeats     metrics.Counter // heartbeat RPCs processed
	fullReports    metrics.Counter // full-inventory reconciles (registers)
	deltaAdded     metrics.Counter // block IDs added via incremental reports
	deltaRemoved   metrics.Counter // block IDs removed via incremental reports
	reportBytes    metrics.Counter // estimated wire bytes of report intake
	resyncRequests metrics.Counter // NeedFullReport responses issued
	busyRejects    metrics.Counter // reports rejected with dfs.ErrBusy
	corruptReports metrics.Counter // corrupt-replica reports from datanodes
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
	// CorruptReports counts corrupt-replica reports received from
	// datanode read paths and scrubbers; each drops the bad replica from
	// the location map so the replication sweep restores a healthy copy.
	CorruptReports int64
	// Tiers is the Ignem master's tier-ledger accounting: per-tier
	// reserved bytes, promotions by destination, climbs, and budget
	// rejections.
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
		CorruptReports:     nn.metrics.corruptReports.Load(),
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
		intake:    make(chan struct{}, reportIntake),
	}
	nn.ns = newMemNamespace(cfg.Seed, nn.placeTargets)
	// Seed+1: the master's replica-choice stream must not replay the
	// namespace's placement draws.
	nn.master = ignem.NewMaster(nn, nn, cfg.Seed+1)
	// New can't return an error without breaking every caller; an
	// unknown policy name surfaces when Serve reports it.
	nn.tierErr = nn.master.ConfigureTiers(cfg.MigrationPolicy, cfg.TierBudgets)
	return nn
}

// attachWAL hands the configured migration WAL (if any) to the Ignem
// master. Called from Serve so the retry pump's goroutine spawns
// alongside the other serving loops.
func (nn *NameNode) attachWAL() {
	if nn.cfg.WALBackend == nil {
		return
	}
	nn.walLog = wal.New(nn.cfg.WALBackend)
	nn.master.AttachJournal(nn.clock, nn.walLog, nn.cfg.WALRetryInterval)
}

// Start listens on cfg.Addr and serves there (see Serve).
func (nn *NameNode) Start() error {
	l, err := nn.net.Listen(nn.cfg.Addr)
	if err != nil {
		return fmt.Errorf("namenode: %w", err)
	}
	return nn.Serve(l)
}

// Serve begins serving RPCs on l, whose Addr is cfg.Addr, and starts the
// datanode-expiry and replication sweepers. On error it closes l.
func (nn *NameNode) Serve(l transport.Listener) error {
	if nn.tierErr != nil {
		l.Close()
		return fmt.Errorf("namenode: %w", nn.tierErr)
	}
	s := transport.NewServer(nn.clock)
	s.Handle("nn.create", wrap(nn.handleCreate))
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
	s.Handle("nn.heartbeat", wrap(nn.handleHeartbeat))
	s.Handle("nn.epoch", wrap(nn.handleEpoch))
	s.Handle("nn.corruptReplica", wrap(nn.handleCorruptReplica))
	s.ServeBackground(l)
	nn.server = s
	nn.listener = l
	nn.attachWAL()
	nn.clock.Go(nn.expiryLoop)
	nn.clock.Go(nn.replicationLoop)
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

// Addr returns the namenode's address.
func (nn *NameNode) Addr() string { return nn.cfg.Addr }

// Master exposes the embedded Ignem master (for failure-injection tests
// and the cluster harness).
func (nn *NameNode) Master() *ignem.Master { return nn.master }

// RestartMaster simulates an Ignem master failure and recovery. With a
// migration WAL (Config.WALBackend) the new master resumes from the
// journal: the epoch stays, slaves keep their pins, and undelivered
// command batches are re-sent idempotently. The replay is reconciled
// against the namespace's pin side tables, which survive the master
// crash and reflect pin/unpin deltas whose journal appends died with the
// old master. Without a WAL the paper's rule holds: the new master
// starts with an empty state and a new epoch, and the epoch bump is
// broadcast to every live slave so they purge stale reference lists
// immediately (the paper broadcasts the new master's address to all
// servers; slaves reset to match the new master's empty state).
func (nn *NameNode) RestartMaster() error {
	if err := nn.master.Restart(nn.ns.Resident); err != nil {
		return err
	}
	if nn.walLog != nil {
		return nil
	}
	epoch := nn.master.Epoch()
	for _, addr := range nn.LiveDataNodes() {
		// Best effort: an unreachable slave purges lazily when it sees
		// the next new-epoch command batch.
		_ = nn.SendEvict(addr, dfs.EvictBatch{Epoch: epoch})
	}
	return nil
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
		bs = dfs.DefaultBlockSize
	}
	rep := req.Replication
	if rep <= 0 {
		rep = dfs.DefaultReplication
	}
	if err := nn.ns.Create(req.Path, bs, rep); err != nil {
		return dfs.CreateResp{}, err
	}
	return dfs.CreateResp{}, nil
}

// handleAddBlocks allocates a window of blocks under one namespace-lock
// acquisition. Placement is drawn per block in request order, so a batch
// yields the same targets the equivalent sequence of one-block requests
// would.
// Validation is all-or-nothing: a bad size anywhere rejects the batch
// before any block is allocated.
func (nn *NameNode) handleAddBlocks(req dfs.AddBlocksReq) (dfs.AddBlocksResp, error) {
	if len(req.Sizes) == 0 {
		return dfs.AddBlocksResp{}, fmt.Errorf("namenode: addBlocks with no sizes")
	}
	if len(req.Checksums) != 0 && len(req.Checksums) != len(req.Sizes) {
		return dfs.AddBlocksResp{}, fmt.Errorf("namenode: addBlocks with %d checksums for %d sizes", len(req.Checksums), len(req.Sizes))
	}
	located, err := nn.ns.Allocate(req.Path, req.Sizes, req.Checksums, req.ReqID)
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
	blocks, err := nn.resolveRange(req.Path, req.Offset, req.Length)
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
	// Best effort: a dead datanode's replicas die with it anyway. Holders
	// are told in address order, not map order, so a virtual-clock run
	// that deletes a file replays.
	holders := make([]string, 0, len(toDelete))
	for addr := range toDelete {
		holders = append(holders, addr)
	}
	sort.Strings(holders)
	for _, addr := range holders {
		c, err := nn.slaveClient(addr)
		if err != nil {
			continue
		}
		_, _ = transport.Call[dfs.DeleteBlocksResp](c, "dn.deleteBlocks", dfs.DeleteBlocksReq{Blocks: toDelete[addr]})
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
	return live[:rep]
}

// ---- datanode registry ----

// acquireIntake claims a slot on the bounded report-admission gate; a
// false return means the caller must answer dfs.ErrBusy. Non-blocking
// by design: pushing back immediately (and letting the datanode retry
// with jittered backoff) is what prevents a reconnect storm from
// queueing an unbounded convoy of full-table reconciles.
func (nn *NameNode) acquireIntake() bool {
	select {
	case nn.intake <- struct{}{}:
		return true
	default:
		nn.metrics.busyRejects.Inc()
		return false
	}
}

func (nn *NameNode) releaseIntake() { <-nn.intake }

// errUnsequenced answers a report without a sequence number: datanodes
// number every report from 1, and the delta protocol has no way to tell
// an unnumbered one's place.
func errUnsequenced(addr string) error {
	return fmt.Errorf("namenode: report from %s carries no sequence number", addr)
}

// handleRegister takes a datanode's full-inventory snapshot: it adds an
// unknown address and re-anchors a known one's sequence and epoch. Either
// way it drops the cached command client, which may belong to a dead
// connection of the datanode's previous life.
func (nn *NameNode) handleRegister(req dfs.RegisterReq) (dfs.RegisterResp, error) {
	if req.Seq == 0 {
		return dfs.RegisterResp{}, errUnsequenced(req.Addr)
	}
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
	// A register is a full snapshot: it re-anchors the delta sequence and
	// starts the epoch its deltas will extend.
	dn.nextSeq = req.Seq + 1
	dn.epoch = req.Epoch
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

func (nn *NameNode) handleHeartbeat(req dfs.HeartbeatReq) (dfs.HeartbeatResp, error) {
	if req.Seq == 0 {
		return dfs.HeartbeatResp{}, errUnsequenced(req.Addr)
	}
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
	if req.Seq != dn.nextSeq {
		// A delta went missing (lost heartbeat, reordered retry): the
		// incremental view may have diverged, so ask for a full snapshot.
		// The deltas that DID arrive still apply — they only ever make
		// the view fresher.
		needFull = true
	}
	if req.Epoch != dn.epoch {
		needFull = true
		// Deltas from an older snapshot than the one already reconciled
		// could resurrect state the resync removed; skip them entirely.
		staleEpoch = req.Epoch < dn.epoch
	}
	dn.nextSeq = req.Seq + 1
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
	// namespace locks when there is state to record. RAM goes first, so
	// its released budget is back before an SSD pin's climb reserves.
	for _, tier := range [...]dfs.Tier{dfs.TierRAM, dfs.TierSSD} {
		pinned, unpinned := req.TierDeltas(tier)
		if len(*pinned)+len(*unpinned) == 0 {
			continue
		}
		nn.ns.TierDeltas(req.Addr, tier, *pinned, *unpinned)
		// Confirmed pins advance the migration WAL's state machine to
		// swapped/checked: the slave verified and pinned these blocks,
		// so recovery won't re-send them. A confirmed flash pin is also
		// what triggers the ladder's climb. Confirmed unpins release
		// the tier's budget charge.
		nn.master.NotePinned(req.Addr, tier, *pinned)
		nn.master.NoteUnpinned(req.Addr, tier, *unpinned)
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
				}
			}
			if len(died) > 0 {
				nn.liveCache = nil
			}
			nn.dnmu.Unlock()
		}
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
	return nn.resolveRange(path, 0, 0)
}

// resolveRange is Resolve restricted to the blocks overlapping the byte
// range [offset, offset+length); length 0 means to the end of the file.
func (nn *NameNode) resolveRange(path string, offset, length int64) ([]dfs.LocatedBlock, error) {
	raw, err := nn.ns.Resolve(path, offset, length)
	if err != nil {
		return nil, err
	}
	out := make([]dfs.LocatedBlock, 0, len(raw))
	nn.dnmu.RLock()
	defer nn.dnmu.RUnlock()
	for _, rb := range raw {
		lb := dfs.LocatedBlock{Block: rb.block, Offset: rb.offset, Checksum: rb.checksum}
		n, fast := 0, false
		for i, addr := range rb.nodes {
			if dn := nn.datanodes[addr]; dn == nil || !dn.alive {
				continue
			}
			rb.nodes[n] = addr
			if rb.tiers != nil {
				rb.tiers[n] = rb.tiers[i]
				fast = fast || rb.tiers[n] > dfs.TierHDD
			}
			n++
		}
		if n > 0 {
			lb.Nodes = rb.nodes[:n]
		}
		if fast {
			lb.Tiers = rb.tiers[:n]
		}
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
