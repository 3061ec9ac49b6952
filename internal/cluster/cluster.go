// Package cluster wires the whole testbed together: namenode (with the
// Ignem master), datanodes (with Ignem slaves), the Yarn-like scheduler,
// and the MapReduce engine, all on one network under one clock — the
// in-memory fabric for the experiments, TCP loopback for a live cluster.
//
// It models the paper's §IV-A setup: an 8-server cluster where every
// server runs a datanode, one also hosts the namenode and resource
// manager, HDFS block size 64 MB, and three file-system configurations
// (HDFS, Ignem, HDFS-Inputs-in-RAM).
package cluster

import (
	"fmt"
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
	// MaxAssignPerHeartbeat caps tasks handed to one node per heartbeat
	// (scheduler default 3 when zero).
	MaxAssignPerHeartbeat int
	// Slave configures the Ignem slaves.
	Slave ignem.SlaveConfig
	// SSD, when its Name is non-empty, gives every datanode a local SSD
	// tier device (see datanode.Config.SSD) so the migration ladder has
	// a middle rung. Zero, the default, runs a two-tier (HDD + RAM)
	// cluster. Use storage.SSDSpec() for the fixed-latency
	// model or storage.SSDVarSpec(seed) for the seeded read-latency
	// long tail; each datanode's device derives its variability stream
	// from this spec's seed offset by the node index, so nodes draw
	// independent but reproducible tails.
	SSD storage.Spec
	// MigrationPolicy selects the placement policy of the Ignem
	// master's tier plane (see ignem.Master.ConfigureTiers): "" or
	// "paper" is the plane's one-rung form, pinning every planned block
	// in RAM as the paper's master does; "ladder" plans onto the SSD
	// rung first and climbs SSD→RAM for small or re-read inputs. The
	// ladder never demotes.
	MigrationPolicy string
	// TierBudgets caps cluster-wide fast-tier residency in bytes, for
	// either policy. Zero RAM = unlimited, bounded only by each slave's
	// capacity; zero SSD = SSD tier absent. See ignem.TierBudgets.
	TierBudgets ignem.TierBudgets
	// Seed drives all randomness (placement, replica choice).
	Seed int64
	// WALBackend, when set, gives the namenode's Ignem master a
	// migration write-ahead log (see namenode.Config.WALBackend):
	// durable planning, journal-backed batch retries, and a
	// RestartMaster that resumes from the journal. Nil — the default —
	// keeps the master unjournaled, so seeded figures are untouched.
	WALBackend wal.Backend
	// ScrubInterval enables the datanodes' background checksum scrubber
	// at this cadence (see datanode.Config.ScrubInterval). Zero — the
	// default — disables scrubbing.
	ScrubInterval time.Duration
	// WrapNet, when set, wraps each component's view of the fabric —
	// the chaos suite injects faults here (internal/faultnet). It is
	// called once per component with its node name ("namenode", "dn0"…,
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
}

// Cluster is a running testbed.
type Cluster struct {
	Clock     simclock.Clock
	Net       transport.Network
	NameNode  *namenode.NameNode
	DataNodes []*datanode.DataNode
	Scheduler *scheduler.Scheduler
	Engine    *mapreduce.Engine

	cfg Config
}

// hotCacheBytes sizes the per-node hot cache in ModeHotCache.
const hotCacheBytes = 32 << 30

// NameNodeAddr is the namenode's node name, and so its address on the
// in-memory network.
const NameNodeAddr = "namenode"

// EngineAddr is the fabric node name the MapReduce engine dials from
// (it listens on nothing; the name only matters to WrapNet fault rules).
const EngineAddr = "engine"

// Start brings up a cluster on a fresh in-memory network, the testbed's
// 10 GbE fabric. It must be called from a simulation goroutine when
// clock is virtual.
func Start(clock simclock.Clock, cfg Config) (*Cluster, error) {
	return StartOn(clock, transport.NewInmemNetwork(clock), cfg)
}

// StartOn brings up a cluster on net. Every component listens first, on
// its node name ("namenode", "dn0"…), and takes its listener's Addr as
// its identity, so no address is closed and bound again: on the
// in-memory network the Addr is the name itself, on transport.Loopback
// a bound port.
func StartOn(clock simclock.Clock, net transport.Network, cfg Config) (*Cluster, error) {
	cfg.setDefaults()
	wrap := func(node string) transport.Network {
		if cfg.WrapNet != nil {
			return cfg.WrapNet(node, net)
		}
		return net
	}

	nnNet := wrap(NameNodeAddr)
	nl, err := nnNet.Listen(NameNodeAddr)
	if err != nil {
		return nil, fmt.Errorf("namenode: %w", err)
	}
	nnAddr := nl.Addr()
	nn := namenode.New(clock, nnNet, namenode.Config{
		Addr:       nnAddr,
		Seed:       cfg.Seed,
		WALBackend: cfg.WALBackend,

		MigrationPolicy: cfg.MigrationPolicy,
		TierBudgets:     cfg.TierBudgets,
	})
	if err := nn.Serve(nl); err != nil {
		return nil, err
	}

	c := &Cluster{Clock: clock, Net: net, NameNode: nn, cfg: cfg}
	nets := make([]transport.Network, cfg.Nodes)
	addrs := make([]string, cfg.Nodes)
	var ls []transport.Listener
	// fail undoes a partial bring-up; a listener closed twice is harmless.
	fail := func(err error) (*Cluster, error) {
		for _, l := range ls {
			l.Close()
		}
		c.Close()
		return nil, err
	}
	for i := range addrs {
		name := fmt.Sprintf("dn%d", i)
		nets[i] = wrap(name)
		l, err := nets[i].Listen(name)
		if err != nil {
			return fail(fmt.Errorf("datanode: %w", err))
		}
		ls = append(ls, l)
		addrs[i] = l.Addr()
	}
	c.Scheduler = scheduler.New(clock, scheduler.Config{
		Nodes:                 addrs,
		MaxAssignPerHeartbeat: cfg.MaxAssignPerHeartbeat,
	})
	for i, addr := range addrs {
		dncfg := datanode.Config{
			Addr:            addr,
			NameNodeAddr:    nnAddr,
			Media:           cfg.Media,
			Seed:            cfg.Seed,
			Slave:           cfg.Slave,
			Liveness:        c.Scheduler,
			ServeAllFromRAM: cfg.Mode == ModeInputsInRAM,
			ScrubInterval:   cfg.ScrubInterval,
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
			dncfg.HotCacheBytes = hotCacheBytes
		}
		dn, err := datanode.New(clock, nets[i], dncfg)
		if err != nil {
			return fail(err)
		}
		if err := dn.Serve(ls[i]); err != nil {
			return fail(err)
		}
		c.DataNodes = append(c.DataNodes, dn)
	}
	c.Scheduler.Start()
	c.Engine = mapreduce.NewEngine(clock, c.Scheduler, wrap(EngineAddr), nnAddr)
	return c, nil
}

// UseIgnem reports whether jobs on this cluster should issue Migrate
// calls (only in ModeIgnem).
func (c *Cluster) UseIgnem() bool { return c.cfg.Mode == ModeIgnem }

// Client opens a new DFS client against the cluster.
func (c *Cluster) Client(opts ...client.Option) (*client.Client, error) {
	return client.New(c.Clock, c.Net, c.NameNode.Addr(), opts...)
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
