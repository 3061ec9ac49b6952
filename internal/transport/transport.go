// Package transport provides the RPC fabric for the Ignem cluster: a
// message-oriented client/server layer over two interchangeable
// transports.
//
//   - The in-memory transport connects components inside one process and
//     charges simulated network latency and bandwidth through a Clock, so
//     whole-cluster experiments run under virtual time. Each direction
//     of a connection is a FIFO link: a message becomes receivable at
//     max(sent, previous delivery) + latency + transmit time, delivered
//     by a clock timer rather than a goroutine. A bulk body's bytes are
//     copied at Send (see inmem.go).
//   - The TCP transport runs the same RPC protocol over real sockets,
//     for live multi-process deployments. Every message is a binary
//     frame: a small envelope, then the body's hand-written Framer
//     fields (see frame.go and tcp.go).
//
// Messages are plain structs. A body sent over TCP must be of a type
// registered with RegisterFramer; Send refuses any other.
package transport

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Errors returned by the RPC layer.
var (
	// ErrClosed indicates the connection or endpoint has shut down.
	ErrClosed = errors.New("transport: closed")
	// ErrTimeout indicates a call deadline elapsed before the reply.
	ErrTimeout = errors.New("transport: call timed out")
)

// RemoteError is a failure reported by the remote handler rather than by
// the transport itself. The handler's error crosses either transport as
// its text alone; when that text ends with a sentinel registered with
// RegisterError, Unwrap returns the sentinel, so errors.Is sees it on
// the calling side too.
type RemoteError struct {
	Method string
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Method, e.Msg)
}

// Unwrap returns the registered sentinel whose text ends Msg, either as
// all of it or after the ": " that fmt.Errorf's "...: %w" leaves, and
// nil when none does.
func (e *RemoteError) Unwrap() error {
	sentinelMu.RLock()
	defer sentinelMu.RUnlock()
	for _, s := range sentinels {
		if rest, ok := strings.CutSuffix(e.Msg, s.Error()); ok && (rest == "" || strings.HasSuffix(rest, ": ")) {
			return s
		}
	}
	return nil
}

var (
	sentinelMu sync.RWMutex
	sentinels  []error
)

// RegisterError registers a sentinel error that handlers return, bare
// or wrapped as the last "%w" of their message, so that it survives the
// trip to the caller inside a RemoteError. It returns err, so a package
// can register a sentinel where it declares it. Registering the same
// error twice is safe.
func RegisterError(err error) error {
	sentinelMu.Lock()
	defer sentinelMu.Unlock()
	if !slices.Contains(sentinels, err) {
		sentinels = append(sentinels, err)
	}
	return err
}

// CallError is a transport-level call failure: the call never completed
// (timeout, closed connection, send failure) as opposed to a RemoteError,
// where the handler ran and reported an error. Retry policies match it
// with errors.As to learn which method and endpoint failed, and errors.Is
// still sees the underlying ErrTimeout/ErrClosed through Unwrap.
type CallError struct {
	// Method is the RPC method that failed.
	Method string
	// Addr is the remote endpoint, when the client knows it (clients made
	// by Dial do; bare NewClient leaves it empty).
	Addr string
	// Err is the underlying transport failure (ErrTimeout, ErrClosed, or
	// a conn send error).
	Err error
}

func (e *CallError) Error() string {
	if e.Addr == "" {
		return fmt.Sprintf("transport: call %s: %v", e.Method, e.Err)
	}
	return fmt.Sprintf("transport: call %s on %s: %v", e.Method, e.Addr, e.Err)
}

func (e *CallError) Unwrap() error { return e.Err }

// Conn is a bidirectional, ordered message pipe.
type Conn interface {
	// Send transmits one message. It never blocks for simulated network
	// time (delivery latency is charged on the receiving side's queue).
	Send(m Message) error
	// Recv blocks until the next message arrives or the conn closes.
	Recv() (Message, error)
	// Close tears down both directions.
	Close() error
}

// DstConn is a Conn that can land a message's bulk bytes where its
// receiving end chooses (see Dsts). NewClient calls SetDsts once, before
// its receive loop starts; a wrapping conn forwards it.
type DstConn interface {
	Conn
	SetDsts(d Dsts)
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// DstListener is a Listener whose conns can land bulk bytes where the
// serving end chooses, from their first message on: a Server calls
// SetDsts before it accepts, and every conn the listener hands out
// afterwards lands where d says. (An in-memory conn copies a message at
// its sender's Send, which can come before the conn is accepted.) A
// wrapping listener forwards it.
type DstListener interface {
	Listener
	SetDsts(d Dsts)
}

// Network abstracts connection establishment so the cluster wiring is
// identical for in-memory and TCP deployments.
type Network interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// Message is the RPC wire unit.
type Message struct {
	// ID correlates a reply with its call.
	ID uint64
	// Method names the remote handler; empty on replies.
	Method string
	// Reply distinguishes replies from calls.
	Reply bool
	// Body carries the call argument or reply value.
	Body any
	// Err carries a handler failure on replies.
	Err string
}

// Sized lets a message body declare its simulated wire size, so the
// in-memory transport can charge bandwidth for bulk transfers (block
// data) rather than just per-message latency.
type Sized interface {
	WireSize() int64
}

func wireSize(body any) int64 {
	if s, ok := body.(Sized); ok {
		return s.WireSize()
	}
	return 256 // nominal size of a small control message
}
