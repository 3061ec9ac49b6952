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
	"repro/internal/cluster"
	"repro/internal/dfs/client"
	"repro/internal/faultnet"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// ClientAddr is the fabric node chaos clients dial from, so tests can
// aim fault rules at client↔cluster links specifically.
const ClientAddr = "client"

// Harness is a running cluster whose fabric is under test control.
type Harness struct {
	Clock   *simclock.Virtual
	Fabric  *faultnet.Fabric
	Cluster *cluster.Cluster
}

// Start brings up a cluster over a fresh fault fabric, whose fault
// randomness cfg.Seed drives as it drives the cluster's. Nodes defaults
// to 4 here (small keeps scenarios fast; chaos is about failure
// interleavings, not scale), and any cfg.WrapNet is replaced by the
// fabric's. Must be called from a simulation goroutine.
func Start(v *simclock.Virtual, cfg cluster.Config) (*Harness, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	h := &Harness{Clock: v}
	cfg.WrapNet = func(node string, base transport.Network) transport.Network {
		if h.Fabric == nil {
			h.Fabric = faultnet.New(v, base, cfg.Seed)
		}
		return h.Fabric.Node(node)
	}
	c, err := cluster.Start(v, cfg)
	if err != nil {
		return nil, err
	}
	h.Cluster = c
	return h, nil
}

// Client opens a DFS client dialing from the fabric's ClientAddr node,
// so crash/partition/drop rules on "client" links apply to it.
func (h *Harness) Client(opts ...client.Option) (*client.Client, error) {
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
// with the namenode (its full inventory), so the replica map reconciles.
func (h *Harness) ReviveDataNode(i int) error {
	h.Fabric.Revive(h.Cluster.DataNodes[i].Addr())
	return h.Cluster.DataNodes[i].Reconnect()
}

// Close tears the cluster down.
func (h *Harness) Close() {
	h.Cluster.Close()
}
