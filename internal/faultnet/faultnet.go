// Package faultnet injects deterministic network and node faults into a
// transport.Network. A Fabric wraps any base network (in-memory or TCP)
// and hands out per-node views via Node; every connection made through a
// view is subject to the fabric's link rules and crash schedule:
//
//   - per-link (directed) message drop probability, fixed delay,
//     reordering, and hard blocks (asymmetric partitions),
//   - one-shot and clock-scheduled node crashes that close the node's
//     listeners and every connection touching it,
//   - Revive + Heal to bring nodes and links back.
//
// Everything is driven by the simulation clock and a single seed, so a
// chaos scenario replays bit-for-bit: scheduled faults fire at exact
// virtual instants, and probabilistic drops draw from per-connection,
// per-direction rngs whose seeds derive from (fabric seed, link, dial
// ordinal). The determinism contract is: keep fault schedules on the
// clock, and confine probabilistic drop rules to links whose connections
// are used by one goroutine at a time (concurrent senders on one conn
// race for rng draws — the fabric stays race-free but the draw order,
// and thus which message dies, is no longer reproducible).
//
// Rule enforcement is dialer-side: the connection returned by a view's
// Dial applies rule(from→to) to outgoing messages and rule(to→from) to
// incoming ones, so both directions of an asymmetric partition work
// without the server knowing who dialed. Connections handed out by a
// wrapped listener pass messages through untouched, with one exception:
// they reorder the replies they send by rule(listener→dialer), which
// the dialing side cannot do, since a reply reaches it already sent.
// They learn the dialing node from the order of dials (every dial of a
// fabric-served address must go through the fabric for that), and are
// tracked so a crash of the listening node kills them.
//
// Deviation from the transport.Conn contract: Send on a delayed link
// sleeps the sender for the configured delay (the base in-memory
// transport charges latency with a delivery timer instead). This keeps
// delays strictly ordered with the caller's other clock activity, which
// is what makes delayed scenarios reproducible.
package faultnet

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"repro/internal/simclock"
	"repro/internal/transport"
)

// Fabric owns the fault state shared by all node views over one base
// network. The zero value is not usable; construct with New.
type Fabric struct {
	clock simclock.Clock
	base  transport.Network
	seed  int64
	start time.Time

	mu        sync.Mutex
	owners    map[string]string // listen addr -> owning node
	rules     map[linkKey]linkRule
	crashed   map[string]bool
	listeners map[string]map[*faultListener]struct{} // node -> live listeners
	conns     map[string]map[*faultConn]struct{}     // node -> conns touching it
	dialSeq   map[linkKey]uint64
	events    []string

	// dialing queues, per dialed address, the nodes whose dials its
	// listener has not yet accepted, in dial order: an accepted conn's
	// peer is the head. dialMu is held across each base Dial, so the
	// base network accepts in the same order.
	dialMu  sync.Mutex
	dialing map[string][]string
}

type linkKey struct{ from, to string }

// linkRule is the fault policy for one directed link. The zero value
// means "healthy".
type linkRule struct {
	drop    float64 // probability a message silently disappears
	delay   time.Duration
	blocked bool // every message silently disappears
	reorder int  // >1: messages shuffle within a window this wide
}

// New wraps base in a fault-injecting fabric. seed fixes every
// probabilistic decision the fabric will ever make.
func New(clock simclock.Clock, base transport.Network, seed int64) *Fabric {
	return &Fabric{
		clock:     clock,
		base:      base,
		seed:      seed,
		start:     clock.Now(),
		owners:    make(map[string]string),
		rules:     make(map[linkKey]linkRule),
		crashed:   make(map[string]bool),
		listeners: make(map[string]map[*faultListener]struct{}),
		conns:     make(map[string]map[*faultConn]struct{}),
		dialSeq:   make(map[linkKey]uint64),
		dialing:   make(map[string][]string),
	}
}

// Node returns the network as seen by the named node. All Listen and
// Dial calls a component makes must go through its own view, so the
// fabric knows which links its connections ride.
func (f *Fabric) Node(name string) transport.Network {
	return &nodeNet{f: f, node: name}
}

// SetDrop makes each message from→to vanish with probability p
// (0 disables). Directed: set both directions for a lossy cable.
func (f *Fabric) SetDrop(from, to string, p float64) {
	f.mu.Lock()
	r := f.rules[linkKey{from, to}]
	r.drop = p
	f.rules[linkKey{from, to}] = r
	f.mu.Unlock()
	f.logf("setdrop %s->%s p=%g", from, to, p)
}

// SetDelay adds a fixed d to every message from→to (0 disables).
func (f *Fabric) SetDelay(from, to string, d time.Duration) {
	f.mu.Lock()
	r := f.rules[linkKey{from, to}]
	r.delay = d
	f.rules[linkKey{from, to}] = r
	f.mu.Unlock()
	f.logf("setdelay %s->%s d=%v", from, to, d)
}

// SetReorder makes messages sent from→to jump the queue within a
// window of the given width (0 or 1 disables): each message draws a
// seeded slot in [0, window) and is released after slot milliseconds.
// Messages sent at least one slot (1ms) apart are displaced by at most
// window-1 positions, and messages sent more than window ms apart
// never reorder; a burst sent in one instant shuffles freely within
// its slot draws.
// Determinism follows the drop-rule contract — slots draw from the
// connection's seeded send rng, so keep reordered links single-sender
// — plus a per-message nanosecond skew that keeps release deadlines
// unique, making the delivery order a pure function of the seed.
// Reordering applies to the dialing side's outgoing messages (requests
// on client→server links) and to the replies a listening side sends
// (server→client links). A held message carries a copy of its bulk
// bytes, as a wire would.
func (f *Fabric) SetReorder(from, to string, window int) {
	if window < 0 {
		window = 0
	}
	f.mu.Lock()
	r := f.rules[linkKey{from, to}]
	r.reorder = window
	f.rules[linkKey{from, to}] = r
	f.mu.Unlock()
	f.logf("setreorder %s->%s window=%d", from, to, window)
}

// Block blackholes every message from→to. Asymmetric: the reverse
// direction keeps flowing unless blocked too.
func (f *Fabric) Block(from, to string) {
	f.mu.Lock()
	r := f.rules[linkKey{from, to}]
	r.blocked = true
	f.rules[linkKey{from, to}] = r
	f.mu.Unlock()
	f.logf("block %s->%s", from, to)
}

// Unblock reverses Block for one directed link.
func (f *Fabric) Unblock(from, to string) {
	f.mu.Lock()
	r := f.rules[linkKey{from, to}]
	r.blocked = false
	f.rules[linkKey{from, to}] = r
	f.mu.Unlock()
	f.logf("unblock %s->%s", from, to)
}

// Partition blocks every link between side a and side b, both
// directions. Links within each side are untouched.
func (f *Fabric) Partition(a, b []string) {
	f.mu.Lock()
	for _, x := range a {
		for _, y := range b {
			for _, k := range []linkKey{{x, y}, {y, x}} {
				r := f.rules[k]
				r.blocked = true
				f.rules[k] = r
			}
		}
	}
	f.mu.Unlock()
	f.logf("partition %v | %v", a, b)
}

// PartitionOneWay blocks every link from side a to side b — the
// asymmetric half of Partition: messages a→b vanish while b→a keeps
// flowing. Undo with Unblock per link or Heal.
func (f *Fabric) PartitionOneWay(a, b []string) {
	f.mu.Lock()
	for _, x := range a {
		for _, y := range b {
			k := linkKey{x, y}
			r := f.rules[k]
			r.blocked = true
			f.rules[k] = r
		}
	}
	f.mu.Unlock()
	f.logf("partition-oneway %v -> %v", a, b)
}

// Heal clears every link rule (blocks, drops, delays). Crashed nodes
// stay crashed; use Revive.
func (f *Fabric) Heal() {
	f.mu.Lock()
	f.rules = make(map[linkKey]linkRule)
	f.mu.Unlock()
	f.logf("heal")
}

// Crash kills node now: its listeners close, every connection touching
// it closes (both ends observe ErrClosed), and until Revive its view
// refuses to Listen or Dial and nobody can dial its addresses.
func (f *Fabric) Crash(node string) {
	f.mu.Lock()
	if f.crashed[node] {
		f.mu.Unlock()
		return
	}
	f.crashed[node] = true
	ls := make([]*faultListener, 0, len(f.listeners[node]))
	for l := range f.listeners[node] {
		ls = append(ls, l)
	}
	cs := make([]*faultConn, 0, len(f.conns[node]))
	for c := range f.conns[node] {
		cs = append(cs, c)
	}
	f.mu.Unlock()
	f.logf("crash %s (listeners=%d conns=%d)", node, len(ls), len(cs))
	for _, l := range ls {
		l.Close()
	}
	for _, c := range cs {
		c.Close()
	}
}

// CrashAfter schedules Crash(node) d from now on the fabric's clock.
func (f *Fabric) CrashAfter(node string, d time.Duration) {
	f.clock.Go(func() {
		f.clock.Sleep(d)
		f.Crash(node)
	})
}

// Revive lets a crashed node rejoin: its view may Listen and Dial
// again. The node's component must re-create its own listeners and
// connections — faultnet does not resurrect them.
func (f *Fabric) Revive(node string) {
	f.mu.Lock()
	delete(f.crashed, node)
	f.mu.Unlock()
	f.logf("revive %s", node)
}

// Crashed reports whether node is currently crashed.
func (f *Fabric) Crashed(node string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed[node]
}

// Events returns a copy of the fabric's event log: every fault action
// and every injected message loss, stamped with elapsed simulation
// time. Two runs of the same seeded scenario produce identical logs.
func (f *Fabric) Events() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.events...)
}

func (f *Fabric) logf(format string, args ...any) {
	line := fmt.Sprintf("[%v] %s", f.clock.Now().Sub(f.start), fmt.Sprintf(format, args...))
	f.mu.Lock()
	f.events = append(f.events, line)
	f.mu.Unlock()
}

func (f *Fabric) ruleFor(from, to string) linkRule {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rules[linkKey{from, to}]
}

// ownerOf maps a dialed address to the node that listens on it. An
// address nobody has listened on yet is treated as its own node, which
// is right for this repo's convention of addr == node name.
func (f *Fabric) ownerOf(addr string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n, ok := f.owners[addr]; ok {
		return n
	}
	return addr
}

// linkRNG derives the seeded rng for one direction of one connection.
func (f *Fabric) linkRNG(from, to string, seq uint64, dir string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d|%s", f.seed, from, to, seq, dir)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

func (f *Fabric) register(c *faultConn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range []string{c.from, c.to} {
		if n == "" {
			continue
		}
		m := f.conns[n]
		if m == nil {
			m = make(map[*faultConn]struct{})
			f.conns[n] = m
		}
		m[c] = struct{}{}
	}
}

func (f *Fabric) deregister(c *faultConn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range []string{c.from, c.to} {
		delete(f.conns[n], c)
	}
}

// nodeNet is one node's view of the fabric.
type nodeNet struct {
	f    *Fabric
	node string
}

var _ transport.Network = (*nodeNet)(nil)

func (n *nodeNet) Listen(addr string) (transport.Listener, error) {
	f := n.f
	f.mu.Lock()
	if f.crashed[n.node] {
		f.mu.Unlock()
		return nil, fmt.Errorf("faultnet: node %q crashed: %w", n.node, transport.ErrClosed)
	}
	f.mu.Unlock()
	inner, err := f.base.Listen(addr)
	if err != nil {
		return nil, err
	}
	l := &faultListener{f: f, node: n.node, inner: inner}
	f.mu.Lock()
	f.owners[addr] = n.node
	m := f.listeners[n.node]
	if m == nil {
		m = make(map[*faultListener]struct{})
		f.listeners[n.node] = m
	}
	m[l] = struct{}{}
	f.mu.Unlock()
	return l, nil
}

func (n *nodeNet) Dial(addr string) (transport.Conn, error) {
	f := n.f
	to := f.ownerOf(addr)
	f.mu.Lock()
	if f.crashed[n.node] {
		f.mu.Unlock()
		return nil, fmt.Errorf("faultnet: node %q crashed: %w", n.node, transport.ErrClosed)
	}
	if f.crashed[to] {
		f.mu.Unlock()
		return nil, fmt.Errorf("faultnet: node %q crashed: %w", to, transport.ErrClosed)
	}
	key := linkKey{n.node, to}
	seq := f.dialSeq[key]
	f.dialSeq[key] = seq + 1
	f.mu.Unlock()

	f.dialMu.Lock()
	f.dialing[addr] = append(f.dialing[addr], n.node)
	inner, err := f.base.Dial(addr)
	if err != nil {
		q := f.dialing[addr]
		f.dialing[addr] = q[:len(q)-1]
	}
	f.dialMu.Unlock()
	if err != nil {
		return nil, err
	}
	c := &faultConn{
		f:       f,
		from:    n.node,
		to:      to,
		inner:   inner,
		ruled:   true,
		sendRNG: f.linkRNG(n.node, to, seq, "send"),
		recvRNG: f.linkRNG(n.node, to, seq, "recv"),
	}
	f.register(c)
	return c, nil
}

// faultListener tracks accepted connections under the listening node so
// a crash kills them. Accepted conns are not rule-checked (the peer's
// dialer-side wrapper already enforces both directions).
type faultListener struct {
	f     *Fabric
	node  string
	inner transport.Listener

	closeOnce sync.Once
}

var _ transport.DstListener = (*faultListener)(nil)

// SetDsts forwards to the inner listener, so a server's conns still
// land bulk bytes where it chooses.
func (l *faultListener) SetDsts(d transport.Dsts) {
	if dl, ok := l.inner.(transport.DstListener); ok {
		dl.SetDsts(d)
	}
}

func (l *faultListener) Accept() (transport.Conn, error) {
	inner, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	c := &faultConn{f: l.f, from: l.node, inner: inner, peer: l.f.acceptedFrom(l.inner.Addr())}
	c.sendRNG = l.f.linkRNG(c.from, c.peer, 0, "reply")
	l.f.register(c)
	return c, nil
}

// acceptedFrom pops the node whose dial of addr was accepted next; ""
// when no dial through the fabric is waiting.
func (f *Fabric) acceptedFrom(addr string) string {
	f.dialMu.Lock()
	defer f.dialMu.Unlock()
	q := f.dialing[addr]
	if len(q) == 0 {
		return ""
	}
	f.dialing[addr] = q[1:]
	return q[0]
}

func (l *faultListener) Close() error {
	l.closeOnce.Do(func() {
		l.f.mu.Lock()
		delete(l.f.listeners[l.node], l)
		l.f.mu.Unlock()
		// Dials it never accepted must not name the peers of a later
		// listener at the same address.
		l.f.dialMu.Lock()
		delete(l.f.dialing, l.inner.Addr())
		l.f.dialMu.Unlock()
	})
	return l.inner.Close()
}

func (l *faultListener) Addr() string { return l.inner.Addr() }

// detach gives a message whose body carries bulk bytes (a block payload,
// transport.BulkFramer) a copy of them, by a round trip through the
// body's frame codec, whose decoder copies the payload out of the frame.
// Other messages are left as they are.
func detach(m *transport.Message) error {
	if m.Body == nil {
		return nil
	}
	t := reflect.TypeOf(m.Body)
	v := reflect.New(t)
	v.Elem().Set(reflect.ValueOf(m.Body))
	bf, ok := v.Interface().(transport.BulkFramer)
	if !ok || len(bf.Bulk()) == 0 {
		return nil
	}
	cp := reflect.New(t)
	if err := cp.Interface().(transport.Framer).DecodeFrame(bf.AppendFrame(nil)); err != nil {
		return fmt.Errorf("faultnet: copy %T: %w", m.Body, err)
	}
	m.Body = cp.Elem().Interface()
	return nil
}

// faultConn applies the fabric's link rules around an inner connection.
type faultConn struct {
	f     *Fabric
	from  string
	to    string // empty on accepted conns
	peer  string // on an accepted conn: the dialing node, if known
	inner transport.Conn
	ruled bool

	sendMu  sync.Mutex
	sendRNG *rand.Rand
	sendSeq uint64 // messages sent; skews reorder deadlines apart
	recvMu  sync.Mutex
	recvRNG *rand.Rand

	closeOnce sync.Once
}

var _ transport.DstConn = (*faultConn)(nil)

// SetDsts forwards to the inner conn, so bulk bytes still land where
// the receiving end chooses.
func (c *faultConn) SetDsts(d transport.Dsts) {
	if dc, ok := c.inner.(transport.DstConn); ok {
		dc.SetDsts(d)
	}
}

func (c *faultConn) Send(m transport.Message) error {
	if !c.ruled {
		if c.peer != "" {
			if r := c.f.ruleFor(c.from, c.peer); r.reorder > 1 {
				return c.hold(m, r, c.peer)
			}
		}
		return c.inner.Send(m)
	}
	r := c.f.ruleFor(c.from, c.to)
	if r.blocked {
		c.f.logf("dropmsg %s->%s method=%q id=%d (blocked)", c.from, c.to, m.Method, m.ID)
		return nil
	}
	if r.drop > 0 {
		c.sendMu.Lock()
		unlucky := c.sendRNG.Float64() < r.drop
		c.sendMu.Unlock()
		if unlucky {
			c.f.logf("dropmsg %s->%s method=%q id=%d (drop)", c.from, c.to, m.Method, m.ID)
			return nil
		}
	}
	if r.reorder > 1 {
		return c.hold(m, r, c.to)
	}
	if r.delay > 0 {
		c.f.clock.Sleep(r.delay)
	}
	return c.inner.Send(m)
}

// hold sends m to the inner conn later, after a seeded slot of the
// reorder window r.
func (c *faultConn) hold(m transport.Message, r linkRule, to string) error {
	c.sendMu.Lock()
	seq := c.sendSeq
	c.sendSeq++
	slot := c.sendRNG.Intn(r.reorder)
	c.sendMu.Unlock()
	// Distinct deadlines (the nanosecond skew never crosses a
	// millisecond slot boundary) make the virtual clock's wake order
	// — and thus the delivery order — a pure function of the seed.
	hold := r.delay + time.Duration(slot)*time.Millisecond +
		time.Duration(seq%1000)*time.Nanosecond
	c.f.logf("reorder %s->%s method=%q id=%d slot=%d", c.from, to, m.Method, m.ID, slot)
	// The message is sent after this Send returned, when the sender may
	// have reused its memory (a datanode recycles a replica's slot), so
	// the held message carries a copy of its bytes.
	if err := detach(&m); err != nil {
		return err
	}
	c.f.clock.Go(func() {
		c.f.clock.Sleep(hold)
		// A release racing the connection's death is a lost message,
		// exactly like a send into a crash.
		_ = c.inner.Send(m)
	})
	return nil
}

func (c *faultConn) Recv() (transport.Message, error) {
	for {
		m, err := c.inner.Recv()
		if err != nil || !c.ruled {
			return m, err
		}
		r := c.f.ruleFor(c.to, c.from)
		if r.blocked {
			c.f.logf("dropmsg %s->%s method=%q id=%d (blocked)", c.to, c.from, m.Method, m.ID)
			continue
		}
		if r.drop > 0 {
			c.recvMu.Lock()
			unlucky := c.recvRNG.Float64() < r.drop
			c.recvMu.Unlock()
			if unlucky {
				c.f.logf("dropmsg %s->%s method=%q id=%d (drop)", c.to, c.from, m.Method, m.ID)
				continue
			}
		}
		if r.delay > 0 {
			c.f.clock.Sleep(r.delay)
		}
		return m, nil
	}
}

func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { c.f.deregister(c) })
	return c.inner.Close()
}
