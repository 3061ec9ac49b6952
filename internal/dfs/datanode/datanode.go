// Package datanode implements the file-system worker: block storage over
// simulated devices, the pinned-memory region, and the embedded Ignem
// slave.
package datanode

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/ignem"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Config configures a DataNode.
type Config struct {
	// Addr is the address the datanode listens on (also its identity).
	Addr string
	// NameNodeAddr is where to register and send heartbeats.
	NameNodeAddr string
	// Media is the spec of the device backing cold blocks (HDD or SSD).
	Media storage.Spec
	// SSD, when its Name is non-empty, attaches a flash device as the
	// migration ladder's middle tier: the slave lands HDD→SSD
	// promotions on it and serves SSD-resident reads from it (with the
	// spec's modeled read variability, if any). The zero value disables
	// the tier — the datanode then behaves exactly as the two-tier
	// original.
	SSD storage.Spec
	// HeartbeatInterval defaults to 1s. Heartbeats also carry pin-state
	// deltas; when PinReportInterval is shorter, reports run at that
	// faster cadence so the namenode's migrated-replica view stays
	// fresh enough for task locality decisions.
	HeartbeatInterval time.Duration
	// PinReportInterval defaults to 250ms.
	PinReportInterval time.Duration
	// Slave configures the embedded Ignem slave.
	Slave ignem.SlaveConfig
	// Liveness lets the slave query the cluster scheduler for job
	// liveness; may be nil.
	Liveness ignem.Liveness
	// ServeAllFromRAM forces every read to RAM speed regardless of pin
	// state. This is the paper's HDFS-Inputs-in-RAM configuration, where
	// vmtouch locks all datanode files in memory.
	ServeAllFromRAM bool
	// HotCacheBytes enables a PACMan/Triple-H-style HOT-data cache: every
	// block read from the cold device is retained in an LRU memory cache
	// of this size, so repeated reads hit RAM. This is the baseline the
	// paper argues cannot help singly-read inputs — only proactive
	// migration can. Zero disables it.
	HotCacheBytes int64
	// FullReportInterval, when positive, sends a periodic epoch-tagged
	// full block report as a safety net under incremental reports: any
	// divergence the deltas missed reconciles within one interval. Zero
	// (the default) disables the periodic resend — the namenode still
	// requests a full report on demand when it detects a sequence gap.
	FullReportInterval time.Duration
	// Seed drives the jittered busy-backoff; the effective stream is
	// also mixed with the address so a fleet started from one seed
	// doesn't back off in lockstep. Only drawn when the namenode pushes
	// back with dfs.ErrBusy.
	Seed int64
	// ScrubInterval, when positive, runs a background scrubber: each
	// interval it re-reads every stored replica payload (charged to the
	// media device), verifies it against the write-time CRC32C, and
	// reports corrupt replicas to the namenode for re-replication. Zero
	// (the default) disables scrubbing.
	ScrubInterval time.Duration
}

func (c *Config) setDefaults() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.PinReportInterval <= 0 {
		c.PinReportInterval = 250 * time.Millisecond
	}
	if c.PinReportInterval > c.HeartbeatInterval {
		c.PinReportInterval = c.HeartbeatInterval
	}
	if c.Media.Name == "" {
		c.Media = storage.HDDSpec()
	}
}

// ScrubStats counts at-rest verifications: the background scrubber's
// sweeps and the single-replica checks readers ask for (dn.verifyBlock).
type ScrubStats struct {
	// Scanned is the number of replica payloads re-read and verified.
	Scanned int64
	// Corrupt is the number of replicas whose payload no longer matched
	// its checksum; each was dropped and reported to the namenode.
	Corrupt int64
}

// DataNode is the file-system worker process. Start it with Start, stop
// it with Close.
type DataNode struct {
	clock    simclock.Clock
	net      transport.Network
	cfg      Config
	server   *transport.Server
	listener transport.Listener
	media    *storage.Device
	ram      *storage.Device
	ssd      *storage.Device // nil when the flash tier is disabled
	slave    *ignem.Slave

	hot *hotCache

	// store holds the replica payloads with their write-time checksums;
	// it has its own lock and never calls back into the datanode, so it
	// is safe to use both under dn.mu (keeping store and blkPending
	// updates atomic) and without it.
	store *storage.ReplicaStore

	mu sync.Mutex
	// pinPending is the NET pin state change per block since the last
	// report: true = now pinned, false = now unpinned. A block pinned
	// then unpinned between reports collapses to a single entry instead
	// of shipping both transitions. pinDirty records that SOME pin event
	// happened, even if the entries collapsed away — it, not the entry
	// count, drives the send cadence, so collapsing never changes when
	// heartbeats go out.
	pinPending map[dfs.BlockID]bool
	// ssdPending mirrors pinPending for the SSD tier.
	ssdPending map[dfs.BlockID]bool
	pinDirty   bool
	// blkPending is the incremental block report accumulator: the net
	// presence change per replica since the last report (true = stored,
	// false = deleted). Block deltas ride whatever heartbeat goes out
	// next; they never trigger an early send.
	blkPending map[dfs.BlockID]bool
	// seq numbers every report sent (register, heartbeat, full report)
	// from one counter; epoch counts full-inventory snapshots the
	// namenode has accepted. Together they let the namenode detect a
	// lost delta and request a resync (see dfs.HeartbeatReq).
	seq   uint64
	epoch uint64
	// needFull is set when the namenode answered NeedFullReport; the
	// loop sends a full block report at the next tick. needRegister is
	// set when the namenode no longer recognizes this datanode (it
	// restarted): re-register first.
	needFull     bool
	needRegister bool
	// skipTicks/busyStreak implement the jittered busy backoff: after a
	// dfs.ErrBusy rejection the loop sits out an exponentially growing,
	// jittered number of report ticks.
	skipTicks  int
	busyStreak int
	jitter     *rand.Rand
	nnClient   *transport.Client
	peers      map[string]*transport.Client
	closed     bool
	readsByMe  int64
	scrub      ScrubStats
}

// New creates a DataNode (not yet serving).
func New(clock simclock.Clock, net transport.Network, cfg Config) (*DataNode, error) {
	cfg.setDefaults()
	media, err := storage.NewDevice(clock, cfg.Media)
	if err != nil {
		return nil, fmt.Errorf("datanode: %w", err)
	}
	ram, err := storage.NewDevice(clock, storage.RAMSpec())
	if err != nil {
		media.Close()
		return nil, fmt.Errorf("datanode: %w", err)
	}
	var ssd *storage.Device
	if cfg.SSD.Name != "" {
		ssd, err = storage.NewDevice(clock, cfg.SSD)
		if err != nil {
			media.Close()
			ram.Close()
			return nil, fmt.Errorf("datanode: %w", err)
		}
	}
	dn := &DataNode{
		clock:      clock,
		net:        net,
		cfg:        cfg,
		media:      media,
		ram:        ram,
		ssd:        ssd,
		store:      storage.NewReplicaStore(),
		pinPending: make(map[dfs.BlockID]bool),
		ssdPending: make(map[dfs.BlockID]bool),
		blkPending: make(map[dfs.BlockID]bool),
		jitter:     rand.New(rand.NewSource(mixSeed(cfg.Addr, cfg.Seed))),
		peers:      make(map[string]*transport.Client),
	}
	if cfg.HotCacheBytes > 0 {
		dn.hot = newHotCache(cfg.HotCacheBytes)
	}
	dn.slave = ignem.NewSlave(clock, cfg.Slave, dn, cfg.Liveness, dn.onPinChange)
	return dn, nil
}

// Start binds the RPC server, registers with the namenode, and begins
// heartbeating.
func (dn *DataNode) Start() error {
	l, err := dn.net.Listen(dn.cfg.Addr)
	if err != nil {
		return fmt.Errorf("datanode: %w", err)
	}
	s := transport.NewServer(dn.clock)
	s.Handle("dn.writeBlock", wrap(dn.handleWriteBlock))
	s.Handle("dn.readBlock", wrap(dn.handleReadBlock))
	s.Handle("dn.deleteBlocks", wrap(dn.handleDeleteBlocks))
	s.Handle("dn.pullBlock", wrap(dn.handlePullBlock))
	s.Handle("dn.verifyBlock", wrap(dn.handleVerifyBlock))
	s.Handle("ignem.migrateBatch", wrap(dn.handleMigrateBatch))
	s.Handle("ignem.evictBatch", wrap(dn.handleEvictBatch))
	s.Handle("ignem.demoteBatch", wrap(dn.handleDemoteBatch))
	s.Handle("ignem.readNotify", wrap(dn.handleReadNotify))
	s.ServeBackground(l)
	dn.server = s
	dn.listener = l

	c, err := transport.Dial(dn.clock, dn.net, dn.cfg.NameNodeAddr)
	if err != nil {
		s.Close()
		return fmt.Errorf("datanode: dial namenode: %w", err)
	}
	dn.mu.Lock()
	dn.nnClient = c
	dn.mu.Unlock()
	if err := dn.register(c); err != nil {
		s.Close()
		c.Close()
		return fmt.Errorf("datanode: register: %w", err)
	}
	dn.clock.Go(dn.heartbeatLoop)
	if dn.cfg.ScrubInterval > 0 {
		dn.clock.Go(dn.scrubLoop)
	}
	return nil
}

func wrap[Req, Resp any](fn func(Req) (Resp, error)) transport.HandlerFunc {
	return func(arg any) (any, error) {
		req, ok := arg.(Req)
		if !ok {
			var want Req
			return nil, fmt.Errorf("datanode: bad request type %T, want %T", arg, want)
		}
		return fn(req)
	}
}

// Slave exposes the embedded Ignem slave (for the harness and tests).
func (dn *DataNode) Slave() *ignem.Slave { return dn.slave }

// MediaDevice exposes the cold-storage device (for utilization metrics).
func (dn *DataNode) MediaDevice() *storage.Device { return dn.media }

// SSDDevice exposes the flash-tier device; nil when the tier is
// disabled.
func (dn *DataNode) SSDDevice() *storage.Device { return dn.ssd }

// Addr returns the datanode's address.
func (dn *DataNode) Addr() string { return dn.cfg.Addr }

// Close simulates killing the whole datanode process: the server stops,
// devices fail pending requests, and pinned memory disappears.
func (dn *DataNode) Close() {
	dn.mu.Lock()
	if dn.closed {
		dn.mu.Unlock()
		return
	}
	dn.closed = true
	nn := dn.nnClient
	peers := make([]*transport.Client, 0, len(dn.peers))
	for _, p := range dn.peers {
		peers = append(peers, p)
	}
	dn.peers = make(map[string]*transport.Client)
	dn.mu.Unlock()
	for _, p := range peers {
		p.Close()
	}
	dn.slave.Close()
	if nn != nil {
		nn.Close()
	}
	if dn.listener != nil {
		dn.listener.Close()
	}
	if dn.server != nil {
		dn.server.Close()
	}
	dn.media.Close()
	dn.ram.Close()
	if dn.ssd != nil {
		dn.ssd.Close()
	}
}

// Reconnect re-attaches a datanode whose network died out from under it
// (listener and connections severed — a faultnet crash) without
// restarting the process: stored blocks and pinned memory survive. It
// re-binds the RPC listener, redials the namenode, and re-registers with
// a full block report so the namenode reconciles its replica map instead
// of trusting stale state.
func (dn *DataNode) Reconnect() error {
	dn.mu.Lock()
	if dn.closed {
		dn.mu.Unlock()
		return fmt.Errorf("datanode: closed")
	}
	oldNN := dn.nnClient
	oldL := dn.listener
	peers := make([]*transport.Client, 0, len(dn.peers))
	for _, p := range dn.peers {
		peers = append(peers, p)
	}
	dn.peers = make(map[string]*transport.Client)
	dn.mu.Unlock()
	for _, p := range peers {
		p.Close()
	}
	if oldL != nil {
		oldL.Close()
	}

	l, err := dn.net.Listen(dn.cfg.Addr)
	if err != nil {
		return fmt.Errorf("datanode: relisten: %w", err)
	}
	dn.server.ServeBackground(l)
	c, err := transport.Dial(dn.clock, dn.net, dn.cfg.NameNodeAddr)
	if err != nil {
		l.Close()
		return fmt.Errorf("datanode: redial namenode: %w", err)
	}
	if err := dn.register(c); err != nil {
		l.Close()
		c.Close()
		return fmt.Errorf("datanode: re-register: %w", err)
	}
	// Probe the master's current epoch so a slave revived with stale
	// old-epoch pins reconciles immediately instead of waiting for the
	// next epoch broadcast. Best effort: a failed probe only delays
	// reconciliation until that broadcast.
	if eresp, err := transport.Call[dfs.EpochResp](c, "nn.epoch", dfs.EpochReq{}); err == nil {
		dn.slave.AdoptEpoch(eresp.Epoch)
	}
	dn.mu.Lock()
	dn.listener = l
	dn.nnClient = c
	dn.mu.Unlock()
	if oldNN != nil {
		oldNN.Close()
	}
	return nil
}

// RestartSlaveProcess simulates the Ignem slave process dying and being
// restarted on the same server: pinned memory is discarded, and new
// commands are handled normally afterwards.
func (dn *DataNode) RestartSlaveProcess() { dn.slave.Restart() }

// ---- ignem.MediaReader ----

// ReadForMigration performs the timed cold-device read that brings a
// block into memory; it is the slave's one-at-a-time migration read.
// The stored replica is verified against checksum (falling back to the
// checksum recorded at write time) during the copy, so a rotten replica
// is never pinned: on a mismatch the replica is dropped, reported to
// the namenode, and the migration fails with dfs.ErrChecksum.
func (dn *DataNode) ReadForMigration(b dfs.Block, checksum uint32) error {
	if err := dn.media.Read(b.Size); err != nil {
		return err
	}
	rep, ok := dn.store.Get(b.ID)
	if !ok {
		return nil // deleted under us; the epoch/tombstone checks handle it
	}
	want := checksum
	if want == 0 {
		want = rep.Checksum
	}
	if want != 0 && len(rep.Data) > 0 && dfs.Checksum(rep.Data) != want {
		dn.dropCorrupt(b.ID)
		return fmt.Errorf("datanode: migrate block %d: %w", b.ID, dfs.ErrChecksum)
	}
	return nil
}

// CopyForMigration is the ignem.TierCopier hook: a timed copy between
// storage tiers. HDD→SSD charges the cold-device read (with the same
// checksum verification as a RAM migration) plus the flash write;
// SSD→RAM reads the flash copy instead of the contended disk — the
// whole point of climbing through the middle tier. Any other pair, or
// a datanode without a flash device, falls back to the historical
// ReadForMigration cost.
func (dn *DataNode) CopyForMigration(b dfs.Block, checksum uint32, from, to dfs.Tier) error {
	if dn.ssd == nil {
		return dn.ReadForMigration(b, checksum)
	}
	switch {
	case from == dfs.TierHDD && to == dfs.TierSSD:
		if err := dn.ReadForMigration(b, checksum); err != nil {
			return err
		}
		return dn.ssd.Write(b.Size)
	case from == dfs.TierSSD && to == dfs.TierRAM:
		return dn.ssd.Read(b.Size)
	default:
		return dn.ReadForMigration(b, checksum)
	}
}

// dropCorrupt removes a replica whose payload failed verification and
// reports it to the namenode (best effort, off the caller's path) so
// the replication sweep can restore the missing copy from a healthy
// peer.
func (dn *DataNode) dropCorrupt(id dfs.BlockID) {
	dn.mu.Lock()
	if dn.closed {
		dn.mu.Unlock()
		return
	}
	dn.store.Delete(id)
	dn.blkPending[id] = false
	nn := dn.nnClient
	dn.mu.Unlock()
	if nn == nil {
		return
	}
	dn.clock.Go(func() {
		_, _ = transport.Call[dfs.CorruptReplicaResp](nn, "nn.corruptReplica",
			dfs.CorruptReplicaReq{Addr: dn.cfg.Addr, Block: id})
	})
}

// onPinChange queues pin-state transitions for the next heartbeat.
// Latest state wins: a block pinned then unpinned between reports ships
// as a single unpin instead of both transitions. RAM and SSD deltas
// accumulate separately; both drive the report cadence, since the
// master's tier budgets stay reserved until the unpin delta lands.
func (dn *DataNode) onPinChange(id dfs.BlockID, tier dfs.Tier, pinned bool) {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if tier == dfs.TierSSD {
		dn.ssdPending[id] = pinned
	} else {
		dn.pinPending[id] = pinned
	}
	dn.pinDirty = true
}

// ---- handlers ----

func (dn *DataNode) handleWriteBlock(req dfs.WriteBlockReq) (dfs.WriteBlockResp, error) {
	size := req.Block.Size
	if len(req.Data) > 0 {
		size = int64(len(req.Data))
	}
	if size <= 0 {
		return dfs.WriteBlockResp{}, fmt.Errorf("datanode: empty block %d", req.Block.ID)
	}
	// Verify the payload against the client's checksum before storing or
	// forwarding: a block mangled in transit fails the write, and the
	// client retries against fresh targets. When the writer sent no
	// checksum, record a locally computed one so the read path and the
	// scrubber can still detect later rot (zero for synthetic blocks).
	sum := req.Checksum
	if len(req.Data) > 0 {
		if got := dfs.Checksum(req.Data); sum == 0 {
			sum = got
		} else if got != sum {
			return dfs.WriteBlockResp{}, fmt.Errorf("datanode: write block %d: %w", req.Block.ID, dfs.ErrChecksum)
		}
	}
	// Forward along the HDFS-style write pipeline and wait for the
	// downstream ack; a broken chain fails the whole write so the client
	// can retry against fresh targets. An eager pipeline overlaps the
	// forward with the local buffer-cache write; otherwise the node
	// stores, then forwards — the historical ordering, kept so
	// timing-sensitive virtual-clock runs are unchanged.
	// Every failure talking to the next hop — dial refused or call
	// failed — is reported as "pipeline to <addr>", which is how the
	// writing client identifies the dead node to exclude on retry. A
	// failed peer's cached connection is dropped so a retry after the
	// peer recovers re-dials instead of reusing a dead conn.
	forward := func() error {
		next, err := dn.peer(req.Pipeline[0])
		if err != nil {
			return fmt.Errorf("datanode: pipeline to %s: %w", req.Pipeline[0], err)
		}
		fwd := req
		fwd.Pipeline = req.Pipeline[1:]
		if _, err := transport.Call[dfs.WriteBlockResp](next, "dn.writeBlock", fwd); err != nil {
			dn.forgetPeer(req.Pipeline[0])
			return fmt.Errorf("datanode: pipeline to %s: %w", req.Pipeline[0], err)
		}
		return nil
	}
	var wg *simclock.WaitGroup
	var fwdErr error
	if req.EagerPipeline && len(req.Pipeline) > 0 {
		wg = simclock.NewWaitGroup(dn.clock)
		wg.Go(func() { fwdErr = forward() })
	}

	// Writes land in the buffer cache (the paper: "the buffer cache can
	// absorb writes"), so they are charged at RAM speed, not disk speed.
	if err := dn.ram.Write(size); err != nil {
		if wg != nil {
			wg.Wait()
		}
		return dfs.WriteBlockResp{}, fmt.Errorf("datanode: write block %d: %w", req.Block.ID, err)
	}
	dn.mu.Lock()
	if dn.closed {
		dn.mu.Unlock()
		if wg != nil {
			wg.Wait()
		}
		return dfs.WriteBlockResp{}, fmt.Errorf("datanode: closed")
	}
	// The store takes ownership of req.Data. When the request arrived on
	// the TCP fast path, Data is a pooled buffer the frame decode handed
	// us; transferring it into the store (instead of copying and
	// releasing) makes the receive path zero-copy. Stored payloads are
	// retained indefinitely and are therefore never returned to the
	// pool — deletion simply lets the GC have them. The eager-pipeline
	// forward above shares the same buffer read-only; the store never
	// mutates payloads, so that alias is safe.
	dn.store.Put(req.Block.ID, size, req.Data, sum)
	dn.blkPending[req.Block.ID] = true
	dn.mu.Unlock()

	if wg != nil {
		wg.Wait()
		if fwdErr != nil {
			return dfs.WriteBlockResp{}, fwdErr
		}
	} else if len(req.Pipeline) > 0 {
		if err := forward(); err != nil {
			return dfs.WriteBlockResp{}, err
		}
	}
	return dfs.WriteBlockResp{}, nil
}

func (dn *DataNode) handleReadBlock(req dfs.ReadBlockReq) (dfs.ReadBlockResp, error) {
	sb, ok := dn.store.Get(req.Block)
	if !ok {
		return dfs.ReadBlockResp{}, fmt.Errorf("datanode: no block %d on %s", req.Block, dn.cfg.Addr)
	}
	// Every served byte is verified once, by the last party that can. A
	// reader that checks the bytes end to end (ReaderVerifies) is that
	// party, and asks for dn.verifyBlock if they fail. For any other
	// reader it is this datanode: never serve bytes that no longer match
	// their write-time checksum — drop the replica, report it, and fail
	// the read so the client fails over to a healthy copy. Checked before
	// touching the slave so a corrupt replica leaves no read-tracking
	// side effects.
	if !req.ReaderVerifies && sb.Checksum != 0 && len(sb.Data) > 0 && dfs.Checksum(sb.Data) != sb.Checksum {
		dn.dropCorrupt(req.Block)
		return dfs.ReadBlockResp{}, fmt.Errorf("datanode: read block %d on %s: %w", req.Block, dn.cfg.Addr, dfs.ErrChecksum)
	}
	// The read path carries the job ID (the paper's HDFS extension): the
	// slave decides which tier serves the read and performs implicit
	// eviction.
	tier, resident := dn.slave.OnBlockReadTier(req.Block, req.Job)
	fromMemory := resident && tier == dfs.TierRAM
	fromSSD := resident && tier == dfs.TierSSD && dn.ssd != nil
	if !fromMemory && !fromSSD && dn.hot != nil && dn.hot.touch(req.Block) {
		// Hot-data cache hit (the PACMan-style baseline): the block was
		// read before and is still resident.
		fromMemory = true
	}
	dev := dn.media
	if fromMemory || dn.cfg.ServeAllFromRAM {
		dev = dn.ram
	} else if fromSSD {
		// Flash-resident copy: served at flash speed, including the
		// spec's modeled long-tail read variability.
		dev = dn.ssd
	}
	if err := dev.Read(sb.Size); err != nil {
		return dfs.ReadBlockResp{}, fmt.Errorf("datanode: read block %d: %w", req.Block, err)
	}
	if !fromMemory && !fromSSD && dn.hot != nil {
		// Retain what was just read; hot caches only ever help the NEXT
		// access, which is exactly why they cannot speed up cold,
		// singly-read inputs.
		dn.hot.insert(req.Block, sb.Size)
	}
	dn.mu.Lock()
	dn.readsByMe++
	dn.mu.Unlock()
	return dfs.ReadBlockResp{Data: sb.Data, Size: sb.Size, FromMemory: fromMemory, Local: req.Local}, nil
}

// handleVerifyBlock is the holder's second opinion on one replica, asked
// for by a reader whose end-to-end check failed on bytes this datanode
// served unverified. Rot at rest is dropped and reported here; corruption
// that happened on the wire finds the stored copy healthy and changes
// nothing, so a reader with a wrong checksum cannot delete good replicas.
func (dn *DataNode) handleVerifyBlock(req dfs.VerifyBlockReq) (dfs.VerifyBlockResp, error) {
	return dfs.VerifyBlockResp{}, dn.verifyReplica(req.Block)
}

// handlePullBlock fetches a replica from a peer datanode and stores it
// locally — the receiving end of namenode-driven re-replication.
func (dn *DataNode) handlePullBlock(req dfs.PullBlockReq) (dfs.PullBlockResp, error) {
	if _, have := dn.store.Get(req.Block.ID); have {
		return dfs.PullBlockResp{}, nil // already hold a replica
	}

	peer, err := dn.peer(req.From)
	if err != nil {
		return dfs.PullBlockResp{}, err
	}
	resp, err := transport.Call[dfs.ReadBlockResp](peer, "dn.readBlock", dfs.ReadBlockReq{Block: req.Block.ID})
	if err != nil {
		return dfs.PullBlockResp{}, fmt.Errorf("datanode: pull block %d from %s: %w", req.Block.ID, req.From, err)
	}
	size := resp.Size
	if len(resp.Data) > 0 {
		size = int64(len(resp.Data))
	}
	// Land the incoming replica through the buffer cache like any write.
	if err := dn.ram.Write(size); err != nil {
		return dfs.PullBlockResp{}, err
	}
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if dn.closed {
		return dfs.PullBlockResp{}, fmt.Errorf("datanode: closed")
	}
	// As in handleWriteBlock, the store takes ownership of the pulled
	// payload (a pooled buffer when the peer read came over TCP). The
	// checksum is recomputed locally from the received bytes — the peer's
	// read path already verified them against the write-time CRC, so a
	// mismatch here could only be our own, which is what we must detect
	// later.
	dn.store.Put(req.Block.ID, size, resp.Data, dfs.Checksum(resp.Data))
	dn.blkPending[req.Block.ID] = true
	return dfs.PullBlockResp{}, nil
}

// peer returns (dialing on demand) a connection to another datanode.
func (dn *DataNode) peer(addr string) (*transport.Client, error) {
	dn.mu.Lock()
	if c, ok := dn.peers[addr]; ok {
		dn.mu.Unlock()
		return c, nil
	}
	dn.mu.Unlock()
	c, err := transport.Dial(dn.clock, dn.net, addr, transport.WithCallTimeout(dfs.DefaultDataNodeTimeout))
	if err != nil {
		return nil, fmt.Errorf("datanode: dial peer %s: %w", addr, err)
	}
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if existing, ok := dn.peers[addr]; ok {
		defer c.Close()
		return existing, nil
	}
	dn.peers[addr] = c
	return c, nil
}

// forgetPeer drops the cached connection to a peer that just failed, so
// the next use re-dials (the peer may have restarted).
func (dn *DataNode) forgetPeer(addr string) {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if c, ok := dn.peers[addr]; ok {
		c.Close()
		delete(dn.peers, addr)
	}
}

func (dn *DataNode) handleDeleteBlocks(req dfs.DeleteBlocksReq) (dfs.DeleteBlocksResp, error) {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	for _, id := range req.Blocks {
		dn.store.Delete(id)
		dn.blkPending[id] = false
	}
	return dfs.DeleteBlocksResp{}, nil
}

func (dn *DataNode) handleMigrateBatch(req dfs.MigrateBatch) (dfs.MigrateBatchResp, error) {
	dn.slave.ApplyMigrateBatch(req)
	return dfs.MigrateBatchResp{}, nil
}

func (dn *DataNode) handleEvictBatch(req dfs.EvictBatch) (dfs.EvictBatchResp, error) {
	dn.slave.ApplyEvictBatch(req)
	return dfs.EvictBatchResp{}, nil
}

func (dn *DataNode) handleDemoteBatch(req dfs.DemoteBatch) (dfs.DemoteBatchResp, error) {
	dn.slave.ApplyDemoteBatch(req)
	return dfs.DemoteBatchResp{}, nil
}

func (dn *DataNode) handleReadNotify(req dfs.ReadNotifyBatch) (dfs.ReadNotifyBatchResp, error) {
	dn.slave.ApplyReadNotifyBatch(req)
	return dfs.ReadNotifyBatchResp{}, nil
}

// heartbeatLoop reports liveness, pinned-memory occupancy, pin-state
// deltas, and incremental block-report deltas to the namenode.
func (dn *DataNode) heartbeatLoop() {
	var sinceBeat time.Duration
	var sinceFull time.Duration
	for {
		dn.clock.Sleep(dn.cfg.PinReportInterval)
		sinceBeat += dn.cfg.PinReportInterval
		sinceFull += dn.cfg.PinReportInterval
		dn.mu.Lock()
		if dn.closed {
			dn.mu.Unlock()
			return
		}
		if dn.skipTicks > 0 {
			// Busy backoff: the namenode pushed back on a report; sit
			// this tick out.
			dn.skipTicks--
			dn.mu.Unlock()
			continue
		}
		if dn.needRegister {
			// The namenode rejected a report because it no longer knows
			// us (it restarted). Re-register with a full snapshot, then
			// resume normal reporting.
			nn := dn.nnClient
			dn.mu.Unlock()
			_ = dn.register(nn)
			continue
		}
		if dn.needFull || (dn.cfg.FullReportInterval > 0 && sinceFull >= dn.cfg.FullReportInterval) {
			dn.mu.Unlock()
			if err := dn.sendFullReport(); err == nil {
				sinceFull = 0
			}
			continue
		}
		// Skip the RPC when there is nothing to report and the full
		// heartbeat is not yet due. pinDirty — not the surviving entry
		// count — drives the cadence, so a pin-then-unpin pair that
		// collapsed to one entry still sends exactly when the
		// uncollapsed deltas would have. Block deltas deliberately do
		// NOT trigger an early send: they ride whatever heartbeat goes
		// out next.
		if !dn.pinDirty && sinceBeat < dn.cfg.HeartbeatInterval {
			dn.mu.Unlock()
			continue
		}
		sinceBeat = 0
		req, undo := dn.buildHeartbeatLocked()
		nn := dn.nnClient
		dn.mu.Unlock()
		// Best effort: a down namenode only costs staleness. The
		// sequence number lets it detect anything lost here.
		resp, err := transport.Call[dfs.HeartbeatResp](nn, "nn.heartbeat", req)
		dn.handleHeartbeatResult(err, undo, resp.NeedFullReport)
	}
}

// reportUndo holds the delta maps drained into an in-flight report so
// they can be merged back if the transport loses it.
type reportUndo struct {
	pins map[dfs.BlockID]bool
	ssd  map[dfs.BlockID]bool
	blks map[dfs.BlockID]bool
}

// buildHeartbeatLocked drains the pending delta maps into a heartbeat
// request with sorted ID lists (sorted lists delta-encode to 1-2 bytes
// per ID on the wire) and the next sequence number.
func (dn *DataNode) buildHeartbeatLocked() (dfs.HeartbeatReq, reportUndo) {
	req := dfs.HeartbeatReq{
		Addr:        dn.cfg.Addr,
		PinnedBytes: dn.slave.PinnedBytes(),
		SSDBytes:    dn.slave.SSDBytes(),
		Seq:         dn.nextSeqLocked(),
		Epoch:       dn.epoch,
	}
	for id, pinned := range dn.pinPending {
		if pinned {
			req.Pinned = append(req.Pinned, id)
		} else {
			req.Unpinned = append(req.Unpinned, id)
		}
	}
	for id, pinned := range dn.ssdPending {
		if pinned {
			req.SSDPinned = append(req.SSDPinned, id)
		} else {
			req.SSDUnpinned = append(req.SSDUnpinned, id)
		}
	}
	for id, present := range dn.blkPending {
		if present {
			req.Added = append(req.Added, id)
		} else {
			req.Removed = append(req.Removed, id)
		}
	}
	sortIDs(req.Pinned)
	sortIDs(req.Unpinned)
	sortIDs(req.SSDPinned)
	sortIDs(req.SSDUnpinned)
	sortIDs(req.Added)
	sortIDs(req.Removed)
	undo := reportUndo{pins: dn.pinPending, ssd: dn.ssdPending, blks: dn.blkPending}
	dn.pinPending = make(map[dfs.BlockID]bool)
	dn.ssdPending = make(map[dfs.BlockID]bool)
	dn.blkPending = make(map[dfs.BlockID]bool)
	dn.pinDirty = false
	return req, undo
}

// handleHeartbeatResult processes a heartbeat outcome: schedules a full
// report when the namenode detected a gap, re-registers when it no
// longer knows us, and requeues the deltas when the transport may have
// lost them.
func (dn *DataNode) handleHeartbeatResult(err error, undo reportUndo, needFull bool) {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if err == nil {
		dn.busyStreak = 0
		if needFull {
			dn.needFull = true
		}
		return
	}
	var remote *transport.RemoteError
	if errors.As(err, &remote) {
		// The namenode answered but rejected the report: it restarted
		// and dropped our registration. The register snapshot will
		// supersede the unsent deltas, so they are not requeued.
		dn.needRegister = true
		return
	}
	// Transport failure: the report may or may not have arrived.
	// Requeue the deltas (newer pending state wins); if the report did
	// arrive, re-applying the deltas is idempotent, and if it did not,
	// the namenode sees the sequence gap and asks for a full resync.
	dn.requeueLocked(undo)
}

// requeueLocked merges drained deltas back into the pending maps.
// Entries recorded after the report was built win: they are newer.
func (dn *DataNode) requeueLocked(undo reportUndo) {
	for id, v := range undo.pins {
		if _, ok := dn.pinPending[id]; !ok {
			dn.pinPending[id] = v
		}
	}
	for id, v := range undo.ssd {
		if _, ok := dn.ssdPending[id]; !ok {
			dn.ssdPending[id] = v
		}
	}
	if len(dn.pinPending) > 0 || len(dn.ssdPending) > 0 {
		dn.pinDirty = true
	}
	for id, v := range undo.blks {
		if _, ok := dn.blkPending[id]; !ok {
			dn.blkPending[id] = v
		}
	}
}

// backoffLocked widens the busy-backoff window: after the namenode
// rejects a report with dfs.ErrBusy the loop sits out an exponentially
// growing, jittered number of report ticks (at the default 250ms tick:
// at most ~3.75s, safely under the 10s liveness expiry).
func (dn *DataNode) backoffLocked() {
	if dn.busyStreak < 3 {
		dn.busyStreak++
	}
	base := 1 << dn.busyStreak // 2, 4, 8 ticks
	dn.skipTicks = base + dn.jitter.Intn(base)
}

// nextSeqLocked consumes the next report sequence number. One counter
// numbers every report (register, heartbeat, full report) so the
// namenode can detect a lost report as a gap.
func (dn *DataNode) nextSeqLocked() uint64 {
	dn.seq++
	return dn.seq
}

// heldBlocksLocked snapshots the replica inventory, sorted, for
// registration and full block reports.
func (dn *DataNode) heldBlocksLocked() []dfs.BlockID {
	return dn.store.IDs()
}

// register sends a full-inventory registration to the namenode,
// retrying with jittered exponential backoff while the namenode pushes
// back busy (a reconnect storm hitting the intake gate). On success the
// epoch advances: the namenode accepted a fresh snapshot, so block
// deltas queued before it are subsumed and dropped.
func (dn *DataNode) register(c *transport.Client) error {
	dn.mu.Lock()
	req := dfs.RegisterReq{
		Addr:   dn.cfg.Addr,
		Blocks: dn.heldBlocksLocked(),
		Seq:    dn.nextSeqLocked(),
		Epoch:  dn.epoch + 1,
	}
	// The snapshot covers everything up to this consistent cut; deltas
	// recorded after it accumulate for the next heartbeat.
	clear(dn.blkPending)
	dn.mu.Unlock()
	delay := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		_, err := transport.Call[dfs.RegisterResp](c, "nn.register", req)
		if err == nil {
			break
		}
		if !dfs.IsBusy(err) || attempt >= 8 {
			return err
		}
		dn.mu.Lock()
		sleep := time.Duration(float64(delay) * (0.5 + dn.jitter.Float64()))
		req.Seq = dn.nextSeqLocked()
		dn.mu.Unlock()
		dn.clock.Sleep(sleep)
		if delay < time.Second {
			delay *= 2
		}
	}
	dn.mu.Lock()
	dn.epoch = req.Epoch
	dn.needRegister = false
	dn.needFull = false
	dn.busyStreak = 0
	dn.mu.Unlock()
	return nil
}

// sendFullReport ships a full epoch-tagged inventory snapshot; on
// success the epoch advances and the namenode discards any stale
// replica state the deltas missed.
func (dn *DataNode) sendFullReport() error {
	dn.mu.Lock()
	nn := dn.nnClient
	if nn == nil {
		dn.mu.Unlock()
		return fmt.Errorf("datanode: not registered")
	}
	req := dfs.BlockReportReq{
		Addr:   dn.cfg.Addr,
		Blocks: dn.heldBlocksLocked(),
		Seq:    dn.nextSeqLocked(),
		Epoch:  dn.epoch + 1,
	}
	// As in register: the snapshot is a consistent cut, so queued block
	// deltas are subsumed by it. Keep them aside to requeue if the
	// transport loses the report.
	undo := reportUndo{blks: dn.blkPending}
	dn.blkPending = make(map[dfs.BlockID]bool)
	dn.mu.Unlock()

	_, err := transport.Call[dfs.BlockReportResp](nn, "nn.blockReport", req)
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if err == nil {
		dn.epoch = req.Epoch
		dn.needFull = false
		dn.busyStreak = 0
		return nil
	}
	if dfs.IsBusy(err) {
		dn.backoffLocked()
		dn.needFull = true // try again after the backoff window
		return err
	}
	var remote *transport.RemoteError
	if errors.As(err, &remote) {
		dn.needRegister = true
		return err
	}
	dn.requeueLocked(undo)
	dn.needFull = true
	return err
}

// SendBlockReport pushes a full replica inventory to the namenode,
// reconciling any staleness in its location map.
func (dn *DataNode) SendBlockReport() error {
	return dn.sendFullReport()
}

// sortIDs sorts a block-ID list in place; every report ships sorted
// lists so the wire codec can delta-encode them compactly.
func sortIDs(ids []dfs.BlockID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// mixSeed derives the busy-backoff jitter seed from the configured seed
// and the datanode's address, so a fleet started from one seed does not
// back off in lockstep.
func mixSeed(addr string, seed int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return int64(h.Sum64()) ^ seed
}

// BlockCount reports how many block replicas this datanode stores.
func (dn *DataNode) BlockCount() int {
	return dn.store.Len()
}

// CorruptReplica flips a byte in one stored replica while keeping its
// recorded checksum — the fault-injection hook corruption-recovery
// tests use. Returns false if the block is absent or payload-less.
func (dn *DataNode) CorruptReplica(id dfs.BlockID) bool {
	return dn.store.Corrupt(id)
}

// ScrubberStats snapshots the at-rest verification counters.
func (dn *DataNode) ScrubberStats() ScrubStats {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	return dn.scrub
}

// scrubLoop is the background scrubber: every ScrubInterval it re-reads
// each stored replica payload against the media device and verifies it
// against its write-time checksum — the paranoid final scan that
// catches rot after a block was written, migrated, and forgotten.
// Corrupt replicas are dropped and reported for re-replication.
func (dn *DataNode) scrubLoop() {
	for {
		dn.clock.Sleep(dn.cfg.ScrubInterval)
		dn.mu.Lock()
		closed := dn.closed
		dn.mu.Unlock()
		if closed {
			return
		}
		dn.scrubOnce()
	}
}

// scrubOnce sweeps the replica inventory once, in sorted-ID order for
// determinism.
func (dn *DataNode) scrubOnce() {
	for _, id := range dn.store.IDs() {
		if dn.verifyReplica(id) != nil {
			return // device closed; abandon the sweep
		}
	}
}

// verifyReplica re-reads one stored replica against the media device and
// checks it against its write-time checksum; a corrupt replica is
// dropped and reported for re-replication. Absent, payload-less
// (synthetic) and unchecksummed replicas have nothing to verify and are
// skipped without charging the device. The error is the device's.
func (dn *DataNode) verifyReplica(id dfs.BlockID) error {
	rep, ok := dn.store.Get(id)
	if !ok || len(rep.Data) == 0 || rep.Checksum == 0 {
		return nil
	}
	if err := dn.media.Read(rep.Size); err != nil {
		return err
	}
	corrupt := dfs.Checksum(rep.Data) != rep.Checksum
	dn.mu.Lock()
	dn.scrub.Scanned++
	if corrupt {
		dn.scrub.Corrupt++
	}
	dn.mu.Unlock()
	if corrupt {
		dn.dropCorrupt(id)
	}
	return nil
}
