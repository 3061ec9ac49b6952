// Package chaos couples the full testbed — namenode with the Ignem
// master, datanodes with Ignem slaves, scheduler, MapReduce engine — to
// a deterministic fault-injecting fabric (internal/faultnet). Every
// component Listens and Dials through its own named view of the fabric,
// so a test can crash a datanode, partition it from the namenode, or
// make a link lossy, and later heal everything, all on the virtual
// clock: the same seed replays the same chaos bit for bit.
//
// The package holds only the harness; the scenarios live in the test
// suite (run with `make chaos`).
package chaos

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs/client"
	"repro/internal/faultnet"
	"repro/internal/ignem"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// ClientAddr is the fabric node chaos clients dial from, so tests can
// aim fault rules at client↔cluster links specifically.
const ClientAddr = "client"

// Config sizes a chaos cluster.
type Config struct {
	// Nodes is the datanode count. Default 4 (small keeps scenarios
	// fast; chaos is about failure interleavings, not scale).
	Nodes int
	// Seed drives cluster placement AND the fabric's fault randomness.
	Seed int64
	// Mode selects the file-system configuration. Chaos scenarios that
	// exercise migration want cluster.ModeIgnem.
	Mode cluster.Mode
	// Slave configures the Ignem slaves.
	Slave ignem.SlaveConfig
	// DFSHeartbeat overrides the datanode heartbeat interval.
	DFSHeartbeat time.Duration
	// WALBackend gives the Ignem master a migration write-ahead log
	// (see cluster.Config.WALBackend). Chaos scenarios pass a
	// wal.MemBackend so they can crash the master at chosen record
	// boundaries and recover from the surviving prefix.
	WALBackend wal.Backend
	// ScrubInterval enables the datanodes' background checksum scrubber
	// (see cluster.Config.ScrubInterval).
	ScrubInterval time.Duration
	// SSD gives every datanode a flash rung (see cluster.Config.SSD);
	// MigrationPolicy and TierBudgets configure the master's migration
	// ladder. Zero values keep the historical two-tier pin-in-RAM
	// cluster.
	SSD             storage.Spec
	MigrationPolicy string
	TierBudgets     ignem.TierBudgets
}

// Harness is a running cluster whose fabric is under test control.
type Harness struct {
	Clock   *simclock.Virtual
	Fabric  *faultnet.Fabric
	Cluster *cluster.Cluster
}

// Start brings up a cluster over a fresh fault fabric. Must be called
// from a simulation goroutine.
func Start(v *simclock.Virtual, cfg Config) (*Harness, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	h := &Harness{Clock: v}
	c, err := cluster.Start(v, cluster.Config{
		Nodes:         cfg.Nodes,
		Mode:          cfg.Mode,
		Seed:          cfg.Seed,
		Slave:         cfg.Slave,
		DFSHeartbeat:  cfg.DFSHeartbeat,
		WALBackend:    cfg.WALBackend,
		ScrubInterval: cfg.ScrubInterval,

		SSD:             cfg.SSD,
		MigrationPolicy: cfg.MigrationPolicy,
		TierBudgets:     cfg.TierBudgets,
		WrapNet: func(node string, base transport.Network) transport.Network {
			if h.Fabric == nil {
				h.Fabric = faultnet.New(v, base, cfg.Seed)
			}
			return h.Fabric.Node(node)
		},
	})
	if err != nil {
		return nil, err
	}
	h.Cluster = c
	return h, nil
}

// Client opens a DFS client dialing from the fabric's ClientAddr node,
// so crash/partition/drop rules on "client" links apply to it. Writes
// default to the serial path, as cluster.Client does.
func (h *Harness) Client(opts ...client.Option) (*client.Client, error) {
	opts = append([]client.Option{client.WithWriteParallelism(1)}, opts...)
	return client.New(h.Clock, h.Fabric.Node(ClientAddr), cluster.NameNodeAddr, opts...)
}

// CrashDataNode severs datanode i from the fabric: its listener and
// every connection touching it die. The process itself keeps running
// (blocks and pinned memory survive), modelling a network/NIC failure
// rather than a host loss.
func (h *Harness) CrashDataNode(i int) {
	h.Fabric.Crash(h.Cluster.DataNodes[i].Addr())
}

// ReviveDataNode heals datanode i's fabric node and re-registers it
// with the namenode (full block report), so the replica map reconciles.
func (h *Harness) ReviveDataNode(i int) error {
	h.Fabric.Revive(h.Cluster.DataNodes[i].Addr())
	return h.Cluster.DataNodes[i].Reconnect()
}

// Close tears the cluster down.
func (h *Harness) Close() {
	h.Cluster.Close()
}
