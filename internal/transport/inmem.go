package transport

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/simclock"
)

// The fabric every in-memory network models: the paper's testbed LAN,
// 10 GbE, where the network is not a bottleneck.
const (
	// linkLatency is the one-way latency of every message.
	linkLatency = 200 * time.Microsecond
	// linkMBps is the per-link streaming bandwidth charged to Sized
	// bodies (10 Gbps).
	linkMBps = 1250
)

// InmemNetwork is an in-process Network whose links charge the
// testbed fabric's latency and bandwidth through a Clock.
type InmemNetwork struct {
	clock simclock.Clock

	mu        sync.Mutex
	listeners map[string]*inmemListener
}

// NewInmemNetwork creates an in-process network on the given clock.
func NewInmemNetwork(clock simclock.Clock) *InmemNetwork {
	return &InmemNetwork{
		clock:     clock,
		listeners: make(map[string]*inmemListener),
	}
}

// Listen registers addr and returns its listener.
func (n *InmemNetwork) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	l := &inmemListener{
		net:    n,
		addr:   addr,
		accept: simclock.NewChan[*inmemConn](n.clock),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to a listening addr.
func (n *InmemNetwork) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	client, server := n.newConnPair()
	l.mu.Lock()
	server.recv.dsts = l.dsts
	l.mu.Unlock()
	if !l.accept.Send(server) {
		client.Close()
		return nil, ErrClosed
	}
	return client, nil
}

// newConnPair builds two half-duplex links joined into a full-duplex pair.
func (n *InmemNetwork) newConnPair() (client, server *inmemConn) {
	ab := &link{net: n, out: simclock.NewChan[Message](n.clock)}
	ba := &link{net: n, out: simclock.NewChan[Message](n.clock)}
	client = &inmemConn{send: ab, recv: ba}
	server = &inmemConn{send: ba, recv: ab}
	return client, server
}

// link is one direction of a connection. A message sent at t becomes
// receivable on out at max(t, the previous message's delivery) +
// latency + transmit time, so messages keep FIFO order and a large body
// delays the ones queued behind it. No goroutine carries messages: each
// send arms one clock timer (Chan.SendAfter) for its delivery instant.
type link struct {
	net *InmemNetwork
	out *simclock.Chan[Message]

	mu   sync.Mutex
	busy time.Time    // when the last queued message is delivered
	head []byte       // scratch for bulk-unit heads
	src  bytes.Reader // the bulk bytes being sent, for recvBulk
	dsts Dsts         // the receiving end's Client or Server (see SetDsts), if any
}

// send queues m for delivery.
func (l *link) send(m Message) error {
	cost := linkLatency + time.Duration(float64(wireSize(m.Body))/(linkMBps*1e6)*float64(time.Second))
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.copyBulk(&m); err != nil {
		return err
	}
	now := l.net.clock.Now()
	deliver := now
	if l.busy.After(now) {
		deliver = l.busy
	}
	deliver = deliver.Add(cost)
	if !l.out.SendAfter(deliver.Sub(now), m) {
		return ErrClosed
	}
	l.busy = deliver
	return nil
}

// copyBulk replaces a BulkFramer body that carries bytes with what
// recvBulk decodes around a copy of them, landed where the receiving end
// chooses, so a delivery, however late, never reads the sender's memory.
// Any other body, a synthetic block's included, passes by reference: no
// encode, no allocation.
func (l *link) copyBulk(m *Message) error {
	fi, ok := lookupFramer(m.Body)
	if !ok || fi.bulk == nil {
		return nil
	}
	bulk := fi.bulk(m.Body)
	if len(bulk) == 0 {
		return nil
	}
	l.head, _ = appendBulkUnitHead(l.head[:0], m, fi)
	l.src.Reset(bulk)
	got, err := recvBulk(l.dsts, l.head, len(bulk), &l.src)
	l.src.Reset(nil)
	if err != nil {
		return fmt.Errorf("%w: %v", errUnencodable, err)
	}
	*m = got
	return nil
}

type inmemConn struct {
	send *link
	recv *link
}

var _ DstConn = (*inmemConn)(nil)

func (c *inmemConn) Send(m Message) error { return c.send.send(m) }

// SetDsts implements DstConn: the peer's sends land where d says.
func (c *inmemConn) SetDsts(d Dsts) {
	c.recv.mu.Lock()
	c.recv.dsts = d
	c.recv.mu.Unlock()
}

func (c *inmemConn) Recv() (Message, error) {
	m, ok := c.recv.out.Recv()
	if !ok {
		return Message{}, ErrClosed
	}
	return m, nil
}

// Close refuses further sends in both directions; messages already in
// flight are still delivered, and then the receiving ends report closed.
func (c *inmemConn) Close() error {
	c.send.out.Close()
	c.recv.out.Close()
	return nil
}

type inmemListener struct {
	net    *InmemNetwork
	addr   string
	accept *simclock.Chan[*inmemConn]

	mu   sync.Mutex
	dsts Dsts // see SetDsts
}

var _ DstListener = (*inmemListener)(nil)

// SetDsts implements DstListener: a conn dialed from now on lands its
// peer's messages where d says, the first one included.
func (l *inmemListener) SetDsts(d Dsts) {
	l.mu.Lock()
	l.dsts = d
	l.mu.Unlock()
}

func (l *inmemListener) Accept() (Conn, error) {
	c, ok := l.accept.Recv()
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

func (l *inmemListener) Close() error {
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	l.accept.Close()
	return nil
}

func (l *inmemListener) Addr() string { return l.addr }
