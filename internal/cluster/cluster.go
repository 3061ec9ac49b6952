// Package cluster wires the whole testbed together: namenode (with the
// Ignem master), datanodes (with Ignem slaves), the Yarn-like scheduler,
// and the MapReduce engine, all on an in-memory network under one clock.
//
// It models the paper's §IV-A setup: an 8-server cluster where every
// server runs a datanode, one also hosts the namenode and resource
// manager, HDFS block size 64 MB, and three file-system configurations
// (HDFS, Ignem, HDFS-Inputs-in-RAM).
package cluster

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/dfs/client"
	"repro/internal/dfs/datanode"
	"repro/internal/dfs/namenode"
	"repro/internal/ignem"
	"repro/internal/mapreduce"
	"repro/internal/scheduler"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Mode selects the file-system configuration under test (paper §IV-A).
type Mode int

const (
	// ModeHDFS is the baseline: inputs on the cold device, no migration.
	ModeHDFS Mode = iota
	// ModeIgnem enables cold-data migration.
	ModeIgnem
	// ModeInputsInRAM is the vmtouch upper bound: every read is served
	// at RAM speed.
	ModeInputsInRAM
	// ModeHotCache is the reactive hot-data-caching baseline (the
	// PACMan/Triple-H class): blocks enter memory only after their first
	// read, so singly-read inputs never benefit.
	ModeHotCache
)

// String names the mode as the paper's tables do.
func (m Mode) String() string {
	switch m {
	case ModeHDFS:
		return "HDFS"
	case ModeIgnem:
		return "Ignem"
	case ModeInputsInRAM:
		return "HDFS-Inputs-in-RAM"
	case ModeHotCache:
		return "HDFS-HotCache"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config sizes and tunes a cluster.
type Config struct {
	// Nodes is the server count. Default 8 (the paper's testbed).
	Nodes int
	// Media is the cold-storage device spec. Default HDD.
	Media storage.Spec
	// Mode selects the file-system configuration.
	Mode Mode
	// SlotsPerNode bounds concurrent tasks per node. Default 10.
	SlotsPerNode int
	// SchedulerHeartbeat gates task assignment. Default 3s.
	SchedulerHeartbeat time.Duration
	// MaxAssignPerHeartbeat caps tasks handed to one node per heartbeat
	// (scheduler default 3 when zero).
	MaxAssignPerHeartbeat int
	// DFSHeartbeat carries datanode liveness and pin/block deltas.
	// Default 1s.
	DFSHeartbeat time.Duration
	// DFSFullReportInterval adds a periodic full-inventory
	// reconciliation report per datanode on top of the incremental
	// deltas (see datanode.Config.FullReportInterval). Zero — the
	// default — disables it: snapshots flow only at register/reconnect
	// or on a namenode resync request.
	DFSFullReportInterval time.Duration
	// Slave configures the Ignem slaves.
	Slave ignem.SlaveConfig
	// SSD, when its Name is non-empty, gives every datanode a local SSD
	// tier device (see datanode.Config.SSD) so the migration ladder has
	// a middle rung. Zero — the default — runs the historical two-tier
	// (HDD + RAM) cluster. Use storage.SSDSpec() for the fixed-latency
	// model or storage.SSDVarSpec(seed) for the seeded read-latency
	// long tail; each datanode's device derives its variability stream
	// from this spec's seed offset by the node index, so nodes draw
	// independent but reproducible tails.
	SSD storage.Spec
	// MigrationPolicy selects the Ignem master's tier-placement policy
	// ("", "paper", "ladder", "popularity" — see ignem.PolicyByName).
	// Empty keeps the paper's smallest-job-first-to-RAM plan,
	// bit-identical to the historical master.
	MigrationPolicy string
	// TierBudgets caps cluster-wide fast-tier residency in bytes. Zero
	// RAM = unlimited (historical behavior); zero SSD = SSD tier
	// absent. See ignem.TierBudgets.
	TierBudgets ignem.TierBudgets
	// Seed drives all randomness (placement, replica choice).
	Seed int64
	// Racks spreads the datanodes round-robin over this many racks and
	// enables rack-aware placement. Zero keeps flat placement.
	Racks int
	// NetLatency and NetMBps shape the fabric. Defaults: 200µs, 1250.
	NetLatency time.Duration
	NetMBps    float64
	// HotCacheBytes sizes the per-node hot cache in ModeHotCache.
	// Default 32 GB.
	HotCacheBytes int64
	// MetaShards partitions the namenode's metadata plane (files,
	// blocks, placement rng, and the Ignem master) into this many
	// shards, each independently locked. 0 (the default) runs the
	// historical unsharded plane; if the IGNEM_META_SHARDS environment
	// variable is a positive integer it overrides a zero value, so the
	// determinism and bench jobs can sweep shard counts without
	// touching experiment code.
	MetaShards int
	// WALBackend, when set, gives the namenode's Ignem master a
	// migration write-ahead log (see namenode.Config.WALBackend):
	// durable planning, journal-backed batch retries, and
	// RecoverMaster-style resume. Nil — the default — keeps the
	// historical unjournaled master, so seeded figures are untouched.
	WALBackend wal.Backend
	// ScrubInterval enables the datanodes' background checksum scrubber
	// at this cadence (see datanode.Config.ScrubInterval). Zero — the
	// default — disables scrubbing.
	ScrubInterval time.Duration
	// WrapNet, when set, wraps each component's view of the fabric —
	// the chaos suite injects faults here (internal/faultnet). It is
	// called once per component with its address ("namenode", "dn0"…,
	// "engine") and the shared base network, and must return the network
	// that component will Listen and Dial on. Nil leaves the fabric
	// untouched (the default for experiments: figures never see it).
	WrapNet func(node string, base transport.Network) transport.Network
}

func (c *Config) setDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Media.Name == "" {
		c.Media = storage.HDDSpec()
	}
	if c.SlotsPerNode <= 0 {
		c.SlotsPerNode = 10
	}
	if c.SchedulerHeartbeat <= 0 {
		c.SchedulerHeartbeat = 3 * time.Second
	}
	if c.DFSHeartbeat <= 0 {
		c.DFSHeartbeat = time.Second
	}
	if c.NetLatency <= 0 {
		c.NetLatency = 200 * time.Microsecond
	}
	if c.NetMBps <= 0 {
		c.NetMBps = 1250
	}
	if c.HotCacheBytes <= 0 {
		c.HotCacheBytes = 32 << 30
	}
	if c.MetaShards == 0 {
		if n, err := strconv.Atoi(os.Getenv("IGNEM_META_SHARDS")); err == nil && n > 0 {
			c.MetaShards = n
		}
	}
}

// Cluster is a running testbed.
type Cluster struct {
	Clock     simclock.Clock
	Net       *transport.InmemNetwork
	NameNode  *namenode.NameNode
	DataNodes []*datanode.DataNode
	Scheduler *scheduler.Scheduler
	Engine    *mapreduce.Engine

	cfg Config
}

// NameNodeAddr is the in-memory address of the namenode.
const NameNodeAddr = "namenode"

// EngineAddr is the fabric node name the MapReduce engine dials from
// (it listens on nothing; the name only matters to WrapNet fault rules).
const EngineAddr = "engine"

// Start brings up a cluster. It must be called from a simulation
// goroutine when clock is virtual.
func Start(clock simclock.Clock, cfg Config) (*Cluster, error) {
	cfg.setDefaults()
	net := transport.NewInmemNetwork(clock,
		transport.WithLatency(cfg.NetLatency),
		transport.WithBandwidthMBps(cfg.NetMBps))
	wrap := func(node string) transport.Network {
		if cfg.WrapNet != nil {
			return cfg.WrapNet(node, net)
		}
		return net
	}

	addrsForRacks := make([]string, cfg.Nodes)
	for i := range addrsForRacks {
		addrsForRacks[i] = fmt.Sprintf("dn%d", i)
	}
	var racks map[string]string
	if cfg.Racks > 0 {
		racks = make(map[string]string, cfg.Nodes)
		for i, addr := range addrsForRacks {
			racks[addr] = fmt.Sprintf("rack%d", i%cfg.Racks)
		}
	}
	nn := namenode.New(clock, wrap(NameNodeAddr), namenode.Config{
		Addr:       NameNodeAddr,
		Seed:       cfg.Seed,
		Racks:      racks,
		MetaShards: cfg.MetaShards,
		WALBackend: cfg.WALBackend,

		MigrationPolicy: cfg.MigrationPolicy,
		TierBudgets:     cfg.TierBudgets,
	})
	if err := nn.Start(); err != nil {
		return nil, err
	}

	addrs := make([]string, cfg.Nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("dn%d", i)
	}
	sched := scheduler.New(clock, scheduler.Config{
		Nodes:                 addrs,
		SlotsPerNode:          cfg.SlotsPerNode,
		HeartbeatInterval:     cfg.SchedulerHeartbeat,
		MaxAssignPerHeartbeat: cfg.MaxAssignPerHeartbeat,
	})

	c := &Cluster{
		Clock:     clock,
		Net:       net,
		NameNode:  nn,
		Scheduler: sched,
		cfg:       cfg,
	}
	for i, addr := range addrs {
		dncfg := datanode.Config{
			Addr:               addr,
			NameNodeAddr:       NameNodeAddr,
			Media:              cfg.Media,
			HeartbeatInterval:  cfg.DFSHeartbeat,
			FullReportInterval: cfg.DFSFullReportInterval,
			Seed:               cfg.Seed,
			Slave:              cfg.Slave,
			Liveness:           sched,
			ServeAllFromRAM:    cfg.Mode == ModeInputsInRAM,
			ScrubInterval:      cfg.ScrubInterval,
		}
		if cfg.SSD.Name != "" {
			dncfg.SSD = cfg.SSD
			if cfg.SSD.ReadVar != nil {
				// Offset the variability seed per node so slow-read
				// draws are independent across the cluster yet
				// reproducible from the cluster seed.
				rv := *cfg.SSD.ReadVar
				rv.Seed += int64(i)
				dncfg.SSD.ReadVar = &rv
			}
		}
		if cfg.Mode == ModeHotCache {
			dncfg.HotCacheBytes = cfg.HotCacheBytes
		}
		dn, err := datanode.New(clock, wrap(addr), dncfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		if err := dn.Start(); err != nil {
			c.Close()
			return nil, err
		}
		c.DataNodes = append(c.DataNodes, dn)
	}
	sched.Start()
	c.Engine = mapreduce.NewEngine(clock, sched, wrap(EngineAddr), NameNodeAddr,
		mapreduce.WithNetworkMBps(cfg.NetMBps))
	return c, nil
}

// UseIgnem reports whether jobs on this cluster should issue Migrate
// calls (only in ModeIgnem).
func (c *Cluster) UseIgnem() bool { return c.cfg.Mode == ModeIgnem }

// NodeAddrs returns the datanode/worker addresses.
func (c *Cluster) NodeAddrs() []string {
	out := make([]string, len(c.DataNodes))
	for i, dn := range c.DataNodes {
		out[i] = dn.Addr()
	}
	return out
}

// Client opens a new DFS client against the cluster. Writes default to
// the serial path so seeded virtual-clock experiments keep bit-identical
// timing; callers can still opt in with WithWriteParallelism.
func (c *Cluster) Client(opts ...client.Option) (*client.Client, error) {
	opts = append([]client.Option{client.WithWriteParallelism(1)}, opts...)
	return client.New(c.Clock, c.Net, NameNodeAddr, opts...)
}

// TotalPinnedBytes sums pinned migration memory across all slaves.
func (c *Cluster) TotalPinnedBytes() int64 {
	var total int64
	for _, dn := range c.DataNodes {
		total += dn.Slave().PinnedBytes()
	}
	return total
}

// PinnedBytesPerNode returns each slave's pinned occupancy.
func (c *Cluster) PinnedBytesPerNode() []int64 {
	out := make([]int64, len(c.DataNodes))
	for i, dn := range c.DataNodes {
		out[i] = dn.Slave().PinnedBytes()
	}
	return out
}

// SSDBytesPerNode returns each slave's flash-rung occupancy.
func (c *Cluster) SSDBytesPerNode() []int64 {
	out := make([]int64, len(c.DataNodes))
	for i, dn := range c.DataNodes {
		out[i] = dn.Slave().SSDBytes()
	}
	return out
}

// SlaveStats aggregates slave counters across the cluster.
func (c *Cluster) SlaveStats() ignem.SlaveStats {
	var agg ignem.SlaveStats
	for _, dn := range c.DataNodes {
		st := dn.Slave().Stats()
		agg.PinnedBytes += st.PinnedBytes
		agg.PinnedBlocks += st.PinnedBlocks
		agg.QueuedCmds += st.QueuedCmds
		agg.DeferredCmds += st.DeferredCmds
		agg.MigratedBlocks += st.MigratedBlocks
		agg.MigratedBytes += st.MigratedBytes
		agg.DiscardedMissed += st.DiscardedMissed
		agg.RejectedTooLarge += st.RejectedTooLarge
		agg.Evictions += st.Evictions
		agg.PurgedJobs += st.PurgedJobs
		agg.MemoryHits += st.MemoryHits
		agg.MemoryMisses += st.MemoryMisses
		agg.SSDPinnedBytes += st.SSDPinnedBytes
		agg.SSDPinnedBlocks += st.SSDPinnedBlocks
		agg.SSDHits += st.SSDHits
		agg.ClimbedBlocks += st.ClimbedBlocks
		agg.Demotions += st.Demotions
	}
	return agg
}

// MeanDiskBusy returns the mean cumulative busy time across the cold
// devices (for utilization reporting).
func (c *Cluster) MeanDiskBusy() time.Duration {
	if len(c.DataNodes) == 0 {
		return 0
	}
	var total time.Duration
	for _, dn := range c.DataNodes {
		total += dn.MediaDevice().Stats().Busy
	}
	return total / time.Duration(len(c.DataNodes))
}

// Close tears the whole cluster down: engine connections, scheduler
// loops, datanodes, then the namenode.
func (c *Cluster) Close() {
	if c.Engine != nil {
		c.Engine.Close()
	}
	if c.Scheduler != nil {
		c.Scheduler.Close()
	}
	for _, dn := range c.DataNodes {
		dn.Close()
	}
	if c.NameNode != nil {
		c.NameNode.Close()
	}
}
