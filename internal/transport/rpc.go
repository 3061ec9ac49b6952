package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/simclock"
)

// HandlerFunc serves one RPC method. It receives the call body and
// returns the reply body. Handlers run on their own goroutine and may
// block on clock-aware waits.
type HandlerFunc func(arg any) (any, error)

// Server dispatches inbound calls to registered handlers.
type Server struct {
	clock simclock.Clock

	mu       sync.Mutex
	handlers map[string]handler
	conns    map[Conn]struct{}
	closed   bool
}

// handler is a registered method: its function, and for a HandleInto
// method the allocator of the slots its calls' bulk bytes land in.
type handler struct {
	fn    HandlerFunc
	alloc func(n int) *bufpool.Slot
}

// NewServer creates a server; register handlers with Handle, then call
// Serve with a listener.
func NewServer(clock simclock.Clock) *Server {
	return &Server{
		clock:    clock,
		handlers: make(map[string]handler),
		conns:    make(map[Conn]struct{}),
	}
}

// Handle registers fn for method. Registering after Serve has started is
// allowed; re-registering a method replaces it.
func (s *Server) Handle(method string, fn HandlerFunc) {
	s.HandleInto(method, fn, nil)
}

// HandleInto is Handle for a method whose calls carry bulk bytes that
// should land in a slot from alloc rather than in a pooled buffer: the
// receiving conn reads them straight into it, and the decoded call body
// holds the slot's one reference, which fn's side must release. A nil
// slot from alloc (its arena closed) leaves the bytes pooled.
func (s *Server) HandleInto(method string, fn HandlerFunc, alloc func(n int) *bufpool.Slot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = handler{fn: fn, alloc: alloc}
}

// claimDst implements Dsts: a call to a HandleInto method lands in a
// fresh slot.
func (s *Server) claimDst(_ uint64, reply bool, method []byte, n int) Bulk {
	if reply {
		return Bulk{}
	}
	s.mu.Lock()
	alloc := s.handlers[string(method)].alloc
	s.mu.Unlock()
	if alloc == nil {
		return Bulk{}
	}
	return inSlot(alloc(n))
}

// Serve accepts connections from l until l closes. It returns once the
// accept loop exits; per-connection service continues on goroutines.
func (s *Server) Serve(l Listener) {
	s.landOn(l)
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.clock.Go(func() { s.serveConn(conn) })
	}
}

// ServeBackground runs Serve on its own goroutine. A conn l hands out
// lands HandleInto calls in slots from its first message on.
func (s *Server) ServeBackground(l Listener) {
	s.landOn(l)
	s.clock.Go(func() { s.Serve(l) })
}

// landOn makes the conns l hands out land bulk bytes where s chooses.
func (s *Server) landOn(l Listener) {
	if dl, ok := l.(DstListener); ok {
		dl.SetDsts(s)
	}
}

func (s *Server) serveConn(conn Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		if m.Reply {
			continue // stray reply; ignore
		}
		s.mu.Lock()
		h, ok := s.handlers[m.Method]
		s.mu.Unlock()
		s.clock.Go(func() {
			reply := Message{ID: m.ID, Reply: true}
			if !ok {
				reply.Err = fmt.Sprintf("unknown method %q", m.Method)
			} else if body, err := safeCall(h.fn, m.Method, m.Body); err != nil {
				reply.Err = err.Error()
			} else {
				reply.Body = body
			}
			// Best effort: the conn may have closed while handling. A
			// reply the conn refused to encode (nothing was written)
			// becomes an error reply, so the caller fails fast instead
			// of waiting out its timeout.
			if err := conn.Send(reply); errors.Is(err, errUnencodable) {
				_ = conn.Send(Message{ID: m.ID, Reply: true, Err: err.Error()})
			}
			// Neither conn reads a body's bytes after its Send returned,
			// so a slot the reply holds can go back now.
			releaseReply(reply.Body)
		})
	}
}

// safeCall runs a handler, converting a panic into an error reply so one
// bad request cannot take the server down.
func safeCall(fn HandlerFunc, method string, body any) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("handler %s panicked: %v", method, r)
		}
	}()
	return fn(body)
}

// Close stops accepting work and closes all live connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	conns := make([]Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Client issues calls over a single connection, multiplexing concurrent
// requests by ID.
type Client struct {
	clock   simclock.Clock
	conn    Conn
	addr    string // remote endpoint, when known (set by Dial)
	timeout time.Duration

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]pendingCall
	closed  bool
	// receiving is the ID of the call whose destination a conn is
	// filling (0: none; IDs start at 1). claimDst sets it under mu,
	// atomically with the call still being pending, and releaseDst
	// clears it; letGo (on mu) wakes a call that timed out meanwhile and
	// waits to get its memory back.
	receiving uint64
	letGo     sync.Cond

	// mailboxes recycles per-call reply mailboxes. A mailbox is recycled
	// only after its reply was received on the clean path — the one case
	// where no other goroutine (recvLoop included) can still hold a
	// reference — and carries its parked-receiver state (waiter, timeout
	// timer) with it, which profiling showed dominated per-call
	// allocations on the TCP data plane.
	mailboxes sync.Pool
}

// pendingCall is a call awaiting its reply: the mailbox the reply is
// delivered to, and where its bulk bytes land: the destination CallInto
// was given, or a slot from CallIntoSlot's alloc (neither for Call).
type pendingCall struct {
	ch    *simclock.Chan[Message]
	dst   []byte
	alloc func(n int) *bufpool.Slot
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithCallTimeout sets the default per-call deadline (default 30s of
// simulated time).
func WithCallTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// NewClient wraps conn and starts the reply-dispatch loop.
func NewClient(clock simclock.Clock, conn Conn, opts ...ClientOption) *Client {
	c := &Client{
		clock:   clock,
		conn:    conn,
		timeout: 30 * time.Second,
		pending: make(map[uint64]pendingCall),
	}
	c.letGo.L = &c.mu
	for _, o := range opts {
		o(c)
	}
	if dc, ok := conn.(DstConn); ok {
		dc.SetDsts(c)
	}
	clock.Go(c.recvLoop)
	return c
}

// Dial connects to addr on net and returns a ready client. Call failures
// from a dialed client carry addr in their *CallError.
func Dial(clock simclock.Clock, net Network, addr string, opts ...ClientOption) (*Client, error) {
	conn, err := net.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := NewClient(clock, conn, opts...)
	c.addr = addr
	return c, nil
}

func (c *Client) recvLoop() {
	for {
		m, err := c.conn.Recv()
		c.mu.Lock()
		var p pendingCall
		var ok bool
		if err == nil && m.Reply {
			p, ok = c.pending[m.ID]
			delete(c.pending, m.ID)
		}
		c.mu.Unlock()
		if err != nil {
			c.failAll()
			return
		}
		if !ok || !p.ch.Send(m) {
			// Nobody takes the reply (its call gave up): a slot it
			// landed in goes back.
			releaseReply(m.Body)
		}
	}
}

// claimDst implements Dsts: a reply to call id lands in a fresh slot
// when the call is still pending and passed an alloc, or in its
// destination when it passed one of exactly n bytes. From the claim of
// a destination until releaseDst, the call's abandon waits before
// giving the memory back to its caller. A slot needs no such wait: it
// is the reply body's, and a reply nobody takes releases it.
func (c *Client) claimDst(id uint64, reply bool, _ []byte, n int) Bulk {
	if !reply {
		return Bulk{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pending[id]
	switch {
	case !ok:
		return Bulk{}
	case p.alloc != nil:
		return inSlot(p.alloc(n))
	case len(p.dst) != n:
		return Bulk{}
	}
	c.receiving = id
	return Bulk{Data: p.dst}
}

// releaseDst ends a claim: nothing writes into the destination any more.
func (c *Client) releaseDst() {
	c.mu.Lock()
	c.receiving = 0
	c.letGo.Broadcast()
	c.mu.Unlock()
}

func (c *Client) failAll() {
	c.mu.Lock()
	pending := c.pending
	c.pending = make(map[uint64]pendingCall)
	c.closed = true
	c.mu.Unlock()
	for _, p := range pending {
		p.ch.Close()
	}
}

// Call invokes method with arg and returns the reply body. It blocks up
// to the client's timeout of simulated time. Transport-level failures
// (timeout, closed connection, send errors) come back as a *CallError
// wrapping ErrTimeout/ErrClosed, so callers can both identify the failed
// endpoint with errors.As and classify the failure with errors.Is.
func (c *Client) Call(method string, arg any) (any, error) {
	return c.CallInto(method, arg, nil)
}

// CallInto is Call with a destination for the reply's bulk bytes. A
// reply that is a bulk unit of exactly len(dst) bulk bytes lands straight
// in dst, read from the socket or copied at the in-memory Send, and its
// body borrows dst instead of owning a pooled buffer; any other reply is
// received as under Call. Only a conn that is a DstConn, or forwards to
// one, lands replies in dst.
//
// dst is the caller's again when CallInto returns, whatever it returns:
// nothing writes into it afterwards. A call that times out while its
// reply is being written into dst closes the connection, which ends the
// read and fails the client's other calls, waits for the conn to let go
// of dst, and only then returns its timeout.
func (c *Client) CallInto(method string, arg any, dst []byte) (any, error) {
	return c.call(method, arg, pendingCall{dst: dst})
}

// CallIntoSlot is Call for a reply whose bulk bytes should land in a
// slot: a reply that is a bulk unit with n > 0 bulk bytes is read
// straight into alloc(n), and its body holds that slot's one reference,
// which the caller must release. A reply without bulk bytes takes no
// slot. Only a conn that is a DstConn, or forwards to one, lands
// replies in slots; any other leaves them pooled.
func (c *Client) CallIntoSlot(method string, arg any, alloc func(n int) *bufpool.Slot) (any, error) {
	return c.call(method, arg, pendingCall{alloc: alloc})
}

// call sends one call and waits for its reply; p says where the reply's
// bulk bytes land.
func (c *Client) call(method string, arg any, p pendingCall) (any, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, &CallError{Method: method, Addr: c.addr, Err: ErrClosed}
	}
	c.nextID++
	id := c.nextID
	ch, _ := c.mailboxes.Get().(*simclock.Chan[Message])
	if ch == nil {
		ch = simclock.NewChan[Message](c.clock)
	}
	p.ch = ch
	c.pending[id] = p
	c.mu.Unlock()

	if err := c.conn.Send(Message{ID: id, Method: method, Body: arg}); err != nil {
		c.abandon(id)
		return nil, &CallError{Method: method, Addr: c.addr, Err: err}
	}
	m, ok, timedOut := ch.RecvTimeout(c.timeout)
	if timedOut {
		c.abandon(id)
		// A reply that raced the timeout into the mailbox is nobody's:
		// a slot it landed in goes back.
		ch.Close()
		for m, ok := ch.Recv(); ok; m, ok = ch.Recv() {
			releaseReply(m.Body)
		}
		return nil, &CallError{Method: method, Addr: c.addr,
			Err: fmt.Errorf("%w after %v", ErrTimeout, c.timeout)}
	}
	if !ok {
		return nil, &CallError{Method: method, Addr: c.addr, Err: ErrClosed}
	}
	// Clean reply: recvLoop removed the mailbox from pending before
	// delivering, so nothing else references it and it can be recycled.
	// On the timeout/closed paths above the mailbox is never recycled —
	// recvLoop may still hold it to deliver a late reply.
	c.mailboxes.Put(ch)
	if m.Err != "" {
		return nil, &RemoteError{Method: method, Msg: m.Err}
	}
	return m.Body, nil
}

// abandon gives up a pending call after a timeout or send failure. The
// call's mailbox is closed so a reply that arrives later (recvLoop may
// already hold a reference to it) is dropped by Chan.Send instead of
// being buffered in a mailbox nobody will ever receive from. Removing
// the call under mu means no later reply can claim its destination; if
// one already has, the fill is ended by closing the conn and abandon
// waits for the conn to let go, so the caller never gets back
// memory that is still being written.
func (c *Client) abandon(id uint64) {
	c.mu.Lock()
	if c.receiving == id {
		c.mu.Unlock()
		c.conn.Close()
		c.mu.Lock()
		for c.receiving == id {
			c.letGo.Wait()
		}
	}
	p, ok := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if ok {
		p.ch.Close()
	}
}

// Close tears down the connection; in-flight calls fail with ErrClosed.
func (c *Client) Close() error { return c.conn.Close() }

// Call is the typed convenience wrapper around Client.Call.
func Call[Resp any](c *Client, method string, arg any) (Resp, error) {
	body, err := c.Call(method, arg)
	return typed[Resp](method, body, err)
}

// CallInto is the typed convenience wrapper around Client.CallInto.
func CallInto[Resp any](c *Client, method string, arg any, dst []byte) (Resp, error) {
	body, err := c.CallInto(method, arg, dst)
	return typed[Resp](method, body, err)
}

// CallIntoSlot is the typed convenience wrapper around
// Client.CallIntoSlot.
func CallIntoSlot[Resp any](c *Client, method string, arg any, alloc func(n int) *bufpool.Slot) (Resp, error) {
	body, err := c.CallIntoSlot(method, arg, alloc)
	return typed[Resp](method, body, err)
}

// typed asserts a reply body to the type the caller expects.
func typed[Resp any](method string, body any, err error) (Resp, error) {
	var zero Resp
	if err != nil {
		return zero, err
	}
	resp, ok := body.(Resp)
	if !ok {
		return zero, fmt.Errorf("transport: %s: reply type %T, want %T", method, body, zero)
	}
	return resp, nil
}
