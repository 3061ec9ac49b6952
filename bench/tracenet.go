package main

import (
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Span sides.
const (
	sideRoot   = "root"   // one client operation, recorded by the workload
	sideCaller = "caller" // an RPC as its caller sees it: request sent -> reply received
	sideCallee = "callee" // the same RPC as its server sees it: request received -> reply sent
	sideInproc = "inproc" // an in-process call the benchmark wraps (the WAL backend)
)

// Layers, named after the repository's packages.
const (
	layerClient    = "client"
	layerTransport = "transport"
	layerNameNode  = "namenode"
	layerDataNode  = "datanode"
	layerIgnem     = "ignem"
	layerWAL       = "wal"
)

// span is one timed interval of a traced run. Spans of one client
// operation share Trace (the index of its root span); Parent is the
// span that caused this one. Both are filled in by assemble.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Side   string `json:"side"`
	Node   string `json:"node"`           // component that recorded the span
	Peer   string `json:"peer,omitempty"` // listener address of the RPC's connection
	MsgID  uint64 `json:"msg_id,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`  // bulk payload carried (request + reply)
	Allocs uint64 `json:"allocs,omitempty"` // roots only: heap objects the process allocated meanwhile
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory. While off it records nothing, so one
// cluster can serve an untraced and a traced phase.
type tracer struct {
	on atomic.Bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// root records one client operation around fn. A nil tracer (an
// untraced run) just calls fn.
func (t *tracer) root(name string, fn func()) {
	if t == nil || !t.on.Load() {
		fn()
		return
	}
	start, allocs := t.now(), heapAllocs()
	fn()
	t.add(span{
		Layer: layerClient, Name: name, Side: sideRoot, Node: clientNode,
		Allocs: heapAllocs() - allocs, Start: start, End: t.now(),
	})
}

// heapAllocs is the cumulative count of heap objects allocated by the
// whole process; unlike runtime.ReadMemStats it does not stop the world.
func heapAllocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// take returns the spans recorded so far and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// clientNode is the node name of the workers' view of the network.
const clientNode = "client"

// net returns node's view of base: every connection it dials or accepts
// records caller-side or callee-side spans. Messages pass through
// untouched, so the TCP conn underneath keeps its binary fast path.
func (t *tracer) net(node string, base transport.Network) transport.Network {
	return &tracedNet{t: t, node: node, base: base}
}

type tracedNet struct {
	t    *tracer
	node string
	base transport.Network
}

func (n *tracedNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.base.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: l, n: n}, nil
}

func (n *tracedNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.base.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, n: n, peer: addr, dialed: true, open: make(map[uint64]openCall)}, nil
}

type tracedListener struct {
	transport.Listener
	n *tracedNet
}

func (l *tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, n: l.n, peer: l.Addr(), open: make(map[uint64]openCall)}, nil
}

type openCall struct {
	method string
	start  int64
	bytes  int64
}

// tracedConn times the calls crossing one connection. A dialed conn
// sees calls go out and replies come back (caller side); an accepted
// conn sees calls come in and replies go out (callee side).
type tracedConn struct {
	transport.Conn
	n      *tracedNet
	peer   string
	dialed bool

	mu   sync.Mutex
	open map[uint64]openCall // calls begun and not yet answered, by message ID
}

func bulkBytes(body any) int64 {
	if s, ok := body.(transport.Sized); ok {
		return s.WireSize()
	}
	return 0
}

func (c *tracedConn) Send(m transport.Message) error {
	t := c.n.t
	if !t.on.Load() {
		return c.Conn.Send(m)
	}
	switch {
	case c.dialed && !m.Reply:
		// The caller-side span starts before the request is encoded.
		c.begin(m, t.now())
	case !c.dialed && m.Reply:
		// The callee-side span ends before the reply is encoded, so
		// encoding and writing it count as wire time.
		c.finish(m, sideCallee, t.now())
	}
	return c.Conn.Send(m)
}

func (c *tracedConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	t := c.n.t
	if err != nil || !t.on.Load() {
		return m, err
	}
	switch {
	case c.dialed && m.Reply:
		c.finish(m, sideCaller, t.now())
	case !c.dialed && !m.Reply:
		c.begin(m, t.now())
	}
	return m, nil
}

func (c *tracedConn) begin(m transport.Message, now int64) {
	c.mu.Lock()
	c.open[m.ID] = openCall{method: m.Method, start: now, bytes: bulkBytes(m.Body)}
	c.mu.Unlock()
}

func (c *tracedConn) finish(m transport.Message, side string, now int64) {
	c.mu.Lock()
	oc, ok := c.open[m.ID]
	delete(c.open, m.ID)
	c.mu.Unlock()
	if !ok {
		return // begun while tracing was off
	}
	layer := layerTransport
	if side == sideCallee {
		layer = layerOfMethod(oc.method)
	}
	c.n.t.add(span{
		Layer: layer, Name: oc.method, Side: side, Node: c.n.node, Peer: c.peer, MsgID: m.ID,
		Bytes: oc.bytes + bulkBytes(m.Body), Start: oc.start, End: now,
	})
}

// layerOfMethod names the layer that serves an RPC method.
func layerOfMethod(method string) string {
	switch {
	case strings.HasPrefix(method, "nn."):
		return layerNameNode
	case strings.HasPrefix(method, "ignem."):
		return layerIgnem
	default:
		return layerDataNode
	}
}
