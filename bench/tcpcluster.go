package main

import (
	"fmt"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/dfs/datanode"
	"repro/internal/dfs/namenode"
	"repro/internal/ignem"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// clockScale is how much faster than the wall the real-clock workloads'
// clock runs. Every device and network charge the product models is a
// sleep on this clock, so at 32x a 4 MiB RAM-speed block read sleeps
// ~90 µs and modeled time stays a few percent of worker time
// (storage.modeled_share guards it). Every protocol interval below is
// multiplied by the same factor, so heartbeats, sweeps and retries keep
// their nominal wall cadence.
const clockScale = 32

func scaled(d time.Duration) time.Duration { return d * clockScale }

// tcpCluster is one namenode and dataNodes datanodes in this process,
// talking over TCP loopback.
type tcpCluster struct {
	clock   *simclock.Real
	base    transport.Network
	wrap    func(node string, base transport.Network) transport.Network
	nn      *namenode.NameNode
	dns     []*datanode.DataNode
	nnAddr  string
	dnAddrs []string
}

type tcpConfig struct {
	seed int64
	// walBackend, when set, gives the namenode's Ignem master a journal.
	walBackend wal.Backend
	// wrap, when set, is each component's view of the network (the
	// tracer's seam, the same one internal/faultnet uses).
	wrap func(node string, base transport.Network) transport.Network
}

func startTCP(cfg tcpConfig) (*tcpCluster, error) {
	dfs.RegisterWire()
	c := &tcpCluster{
		clock: simclock.NewScaledReal(clockScale),
		base:  transport.NewTCPNetwork(),
		wrap:  cfg.wrap,
	}
	var err error
	if c.nnAddr, err = freeAddr(c.base); err != nil {
		return nil, err
	}
	c.nn = namenode.New(c.clock, c.net("namenode"), namenode.Config{
		Addr:                     c.nnAddr,
		Seed:                     cfg.seed,
		WALBackend:               cfg.walBackend,
		HeartbeatExpiry:          scaled(10 * time.Second),
		ExpirySweepInterval:      scaled(time.Second),
		ReplicationSweepInterval: scaled(5 * time.Second),
		WALRetryInterval:         scaled(time.Second),
	})
	if err := c.nn.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < dataNodes; i++ {
		addr, err := freeAddr(c.base)
		if err != nil {
			c.close()
			return nil, err
		}
		dn, err := datanode.New(c.clock, c.net(fmt.Sprintf("dn%d", i)), datanode.Config{
			Addr:              addr,
			NameNodeAddr:      c.nnAddr,
			Media:             storage.RAMSpec(),
			Seed:              cfg.seed,
			HeartbeatInterval: scaled(time.Second),
			PinReportInterval: scaled(250 * time.Millisecond),
			Slave:             ignem.SlaveConfig{CleanupMinInterval: scaled(10 * time.Second)},
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.dns = append(c.dns, dn)
		c.dnAddrs = append(c.dnAddrs, addr)
		if err := dn.Start(); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// freeAddr reserves a loopback port by binding and releasing it: the
// datanode's address is also its identity, so it must be known before
// the datanode listens.
func freeAddr(net transport.Network) (string, error) {
	l, err := net.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr(), nil
}

func (c *tcpCluster) net(node string) transport.Network {
	if c.wrap != nil {
		return c.wrap(node, c.base)
	}
	return c.base
}

// client dials a default-option client (plus any instrumentation or
// cache option the workload is about).
func (c *tcpCluster) client(opts ...client.Option) (*client.Client, error) {
	return client.New(c.clock, c.net(clientNode), c.nnAddr, opts...)
}

// modeledBusy sums the modeled service time of every cold device, in
// wall seconds: what the workers spent asleep on the device model.
func (c *tcpCluster) modeledBusy() float64 {
	var busy time.Duration
	for _, dn := range c.dns {
		busy += dn.MediaDevice().Stats().Busy
	}
	return busy.Seconds() / clockScale
}

func (c *tcpCluster) close() {
	for _, dn := range c.dns {
		dn.Close()
	}
	if c.nn != nil {
		c.nn.Close()
	}
}
