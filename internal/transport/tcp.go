package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Wire protocol: the TCP stream is a sequence of self-delimiting units,
// each
//
//	1 byte   unit kind (unitFast | unitBulk)
//	uvarint  payload length (unitBulk: head length)
//	uvarint  bulk length    (unitBulk only)
//	...      payload bytes  (unitBulk: head bytes, then bulk bytes)
//
// unitFast payloads are a message framed by its body's registered Framer
// (see frame.go). unitBulk carries a BulkFramer body in two parts: a
// small head that passes through conn scratch like a fast unit, and the
// bulk bytes, which Send writes straight from the body's slice and Recv
// reads straight into the buffer recvBulk chooses. Any other kind, 0x00
// included (the retired gob unit), is a protocol error.
const (
	unitFast = 0x01
	unitBulk = 0x02

	// maxUnitSize bounds a unit payload and the bulk part of a bulk unit
	// (a corrupted length prefix must not drive a giant allocation).
	// Comfortably above the largest block payload the benchmarks or
	// experiments move in one message.
	maxUnitSize = 64 << 20

	// maxHeadSize bounds the head of a bulk unit: a message envelope
	// plus a handful of scalar fields and pipeline addresses. It is also
	// the size conn scratch stays under while only bulk units flow.
	maxHeadSize = 64 << 10
)

// errUnencodable marks a message Send refused before writing anything:
// its body type has no registered Framer, or its unit is over the size
// limit. The conn stays usable.
var errUnencodable = errors.New("transport: unencodable message")

// TCPNetwork is the real-socket Network. It must be used with the real
// clock: socket reads block natively, which would stall a virtual clock.
type TCPNetwork struct{}

var _ Network = TCPNetwork{}

// NewTCPNetwork returns the TCP transport.
func NewTCPNetwork() TCPNetwork { return TCPNetwork{} }

// Listen binds a TCP listener on addr (host:port; use 127.0.0.1:0 for an
// ephemeral port and read it back with Addr).
func (n TCPNetwork) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

// Dial connects to a TCP RPC endpoint.
func (n TCPNetwork) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

// Loopback is the TCP network of a cluster on one host: Listen binds an
// ephemeral 127.0.0.1 port whatever node name it is given, so a
// component's address is its listener's Addr.
type Loopback struct{ TCPNetwork }

// Listen binds a fresh loopback port; the name is not an address here.
func (Loopback) Listen(string) (Listener, error) { return TCPNetwork{}.Listen("127.0.0.1:0") }

type tcpListener struct {
	l net.Listener

	mu   sync.Mutex
	dsts Dsts // see SetDsts
}

var _ DstListener = (*tcpListener)(nil)

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	tc := newTCPConn(c)
	t.mu.Lock()
	tc.dsts = t.dsts
	t.mu.Unlock()
	return tc, nil
}

// SetDsts implements DstListener.
func (t *tcpListener) SetDsts(d Dsts) {
	t.mu.Lock()
	t.dsts = d
	t.mu.Unlock()
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

type tcpConn struct {
	c net.Conn

	// Send state, guarded by wmu. wbuf is grow-once scratch for
	// fast-unit payloads and bulk-unit heads, so steady-state sends
	// allocate nothing. vec is the gather list of a bulk unit (header,
	// head, bulk), kept here because a local would escape through
	// net.Buffers.WriteTo.
	wmu  sync.Mutex
	bw   *bufio.Writer
	wbuf []byte
	hdr  [1 + 2*binary.MaxVarintLen64]byte
	vec  [3][]byte
	bufs net.Buffers

	// Recv state, used only by the conn's single reader goroutine. rbuf
	// is grow-once scratch for fast-unit payloads and bulk-unit heads,
	// valid only until the next Recv — DecodeFrame and DecodeHead
	// implementations copy what they keep of it.
	br   *bufio.Reader
	rbuf []byte
	dsts Dsts // the owning Client or Server (see SetDsts)
}

var _ DstConn = (*tcpConn)(nil)

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, bw: bufio.NewWriterSize(c, 64<<10), br: bufio.NewReaderSize(c, 64<<10)}
}

// Send frames m and writes it. A body type with no registered Framer, or
// a unit over the size limit, fails with errUnencodable before any byte
// is written.
func (t *tcpConn) Send(m Message) error {
	fi, ok := lookupFramer(m.Body)
	if !ok {
		return fmt.Errorf("%w: no frame codec for body type %T", errUnencodable, m.Body)
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if fi.encodeHead != nil {
		return t.sendBulk(&m, fi)
	}
	t.wbuf = appendFastUnitPayload(t.wbuf[:0], &m, fi)
	if n := len(t.wbuf); n > maxUnitSize {
		t.wbuf = nil // do not keep an oversize buffer as scratch
		return fmt.Errorf("%w: unit of %d bytes exceeds limit", errUnencodable, n)
	}
	t.hdr[0] = unitFast
	hn := 1 + binary.PutUvarint(t.hdr[1:], uint64(len(t.wbuf)))
	// t.hdr (guarded by wmu) rather than a local: a stack array passed to
	// bw.Write escapes through the underlying io.Writer interface and
	// costs one heap allocation per unit sent.
	if _, err := t.bw.Write(t.hdr[:hn]); err != nil {
		return err
	}
	if _, err := t.bw.Write(t.wbuf); err != nil {
		return err
	}
	return t.bw.Flush()
}

// sendBulk writes one bulk unit as a single gathered write (writev on a
// TCP socket): the unit header and the head from conn scratch, the bulk
// bytes from wherever the body keeps them. bw is empty between Sends, so
// bypassing it cannot reorder the stream.
func (t *tcpConn) sendBulk(m *Message, fi *framerInfo) error {
	var bulk []byte
	t.wbuf, bulk = appendBulkUnitHead(t.wbuf[:0], m, fi)
	if len(t.wbuf) > maxHeadSize || len(bulk) > maxUnitSize {
		return fmt.Errorf("%w: bulk unit of %d+%d bytes exceeds limit", errUnencodable, len(t.wbuf), len(bulk))
	}
	t.hdr[0] = unitBulk
	hn := 1 + binary.PutUvarint(t.hdr[1:], uint64(len(t.wbuf)))
	hn += binary.PutUvarint(t.hdr[hn:], uint64(len(bulk)))
	t.vec = [3][]byte{t.hdr[:hn], t.wbuf, bulk}
	t.bufs = t.vec[:]
	_, err := t.bufs.WriteTo(t.c)
	t.vec[2] = nil // a failed write leaves the unsent payload listed; do not pin it
	return err
}

func (t *tcpConn) Recv() (Message, error) {
	kind, err := t.br.ReadByte()
	if err != nil {
		return Message{}, err
	}
	n, err := binary.ReadUvarint(t.br)
	if err != nil {
		return Message{}, err
	}
	if n > maxUnitSize {
		return Message{}, fmt.Errorf("transport: unit of %d bytes exceeds limit", n)
	}
	switch kind {
	case unitFast:
		buf, err := t.readScratch(n)
		if err != nil {
			return Message{}, err
		}
		return decodeFastUnitPayload(buf)
	case unitBulk:
		bn, err := binary.ReadUvarint(t.br)
		if err != nil {
			return Message{}, err
		}
		// Both bounds are checked before any buffer is taken.
		if n > maxHeadSize || bn > maxUnitSize {
			return Message{}, fmt.Errorf("transport: bulk unit of %d+%d bytes exceeds limit", n, bn)
		}
		head, err := t.readScratch(n)
		if err != nil {
			return Message{}, err
		}
		// Reads of a block-sized body bypass br's buffer: the socket
		// fills the chosen buffer directly, a chunk at a time.
		return recvBulk(t.dsts, head, int(bn), t.br)
	default:
		return Message{}, fmt.Errorf("transport: unknown unit kind 0x%02x", kind)
	}
}

// readScratch reads the next n bytes of the stream into rbuf, growing it
// at most once per size, and returns them.
func (t *tcpConn) readScratch(n uint64) ([]byte, error) {
	if uint64(cap(t.rbuf)) < n {
		t.rbuf = make([]byte, n)
	}
	buf := t.rbuf[:n]
	_, err := io.ReadFull(t.br, buf)
	return buf, err
}

// SetDsts implements DstConn.
func (t *tcpConn) SetDsts(d Dsts) { t.dsts = d }

func (t *tcpConn) Close() error { return t.c.Close() }
