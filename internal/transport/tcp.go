package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/bufpool"
)

// RegisterType registers a concrete message-body type for gob encoding on
// the TCP transport. Call it once per type, typically from an init in the
// package that defines the wire structs.
func RegisterType(v any) { gob.Register(v) }

// Wire protocol: the TCP stream is a sequence of self-delimiting units,
// each
//
//	1 byte   unit kind (unitGob | unitFast | unitBulk)
//	uvarint  payload length (unitBulk: head length)
//	uvarint  bulk length    (unitBulk only)
//	...      payload bytes  (unitBulk: head bytes, then bulk bytes)
//
// unitGob payloads are the output of one persistent gob Encode of the
// Message (type definitions included the first time each type appears,
// exactly as on a raw gob stream). unitFast payloads are the binary
// fast-path format for bodies registered with RegisterFramer — see
// frame.go. unitBulk carries a BulkFramer body in two parts: a small
// head that passes through conn scratch like a fast unit, and the bulk
// bytes, which Send writes straight from the body's slice and Recv reads
// straight into the pooled buffer the decoded body owns. A conn sends a
// body registered with RegisterFramer as a fast or bulk unit and any
// other body as a gob unit, and decodes all three kinds.
const (
	unitGob  = 0x00
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

type tcpListener struct{ l net.Listener }

var _ Listener = (*tcpListener)(nil)

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

type tcpConn struct {
	c net.Conn

	// Send state, guarded by wmu. The gob encoder is persistent but
	// stages each Encode into stage so its output can be framed as one
	// unit; wbuf is grow-once scratch for fast-unit payloads and bulk-unit
	// heads, so steady-state sends allocate nothing. vec is the gather
	// list of a bulk unit (header, head, bulk), kept here because a local
	// would escape through net.Buffers.WriteTo.
	wmu   sync.Mutex
	bw    *bufio.Writer
	enc   *gob.Encoder
	stage bytes.Buffer
	wbuf  []byte
	hdr   [1 + 2*binary.MaxVarintLen64]byte
	vec   [3][]byte
	bufs  net.Buffers

	// Recv state, used only by the conn's single reader goroutine. The
	// gob decoder is persistent and reads each unit's payload through
	// feed (a byte-counted view of br); rbuf is grow-once scratch for
	// fast-unit payloads and bulk-unit heads, valid only until the next
	// Recv — DecodeFrame and DecodeHead implementations copy what they
	// keep of it.
	br   *bufio.Reader
	dec  *gob.Decoder
	feed *payloadFeed
	rbuf []byte
}

var _ Conn = (*tcpConn)(nil)

func newTCPConn(c net.Conn) *tcpConn {
	t := &tcpConn{c: c}
	t.bw = bufio.NewWriterSize(c, 64<<10)
	t.enc = gob.NewEncoder(&t.stage)
	t.br = bufio.NewReaderSize(c, 64<<10)
	t.feed = &payloadFeed{br: t.br}
	// The decoder reads through feed, which implements io.ByteReader,
	// so gob uses it directly (no internal buffering) and consumes
	// exactly one unit payload per Decode.
	t.dec = gob.NewDecoder(t.feed)
	return t
}

func (t *tcpConn) Send(m Message) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()

	if fi, ok := lookupFramer(m.Body); ok {
		if fi.encodeHead != nil {
			return t.sendBulk(&m, fi)
		}
		t.wbuf = appendFastUnitPayload(t.wbuf[:0], &m, fi)
		if err := t.writeUnitHeader(unitFast, len(t.wbuf)); err != nil {
			return err
		}
		if _, err := t.bw.Write(t.wbuf); err != nil {
			return err
		}
		return t.bw.Flush()
	}

	// Gob fallback: stage one persistent-stream Encode, then frame it.
	t.stage.Reset()
	if err := t.enc.Encode(&m); err != nil {
		return err
	}
	if err := t.writeUnitHeader(unitGob, t.stage.Len()); err != nil {
		return err
	}
	if _, err := t.stage.WriteTo(t.bw); err != nil {
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
		return fmt.Errorf("transport: bulk unit of %d+%d bytes exceeds limit", len(t.wbuf), len(bulk))
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

func (t *tcpConn) writeUnitHeader(kind byte, n int) error {
	// t.hdr (guarded by wmu) rather than a local: a stack array passed to
	// bw.Write escapes through the underlying io.Writer interface and
	// costs one heap allocation per unit sent.
	t.hdr[0] = kind
	hn := 1 + binary.PutUvarint(t.hdr[1:], uint64(n))
	_, err := t.bw.Write(t.hdr[:hn])
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
	case unitGob:
		t.feed.remaining = n
		var m Message
		if err := t.dec.Decode(&m); err != nil {
			return Message{}, err
		}
		if t.feed.remaining != 0 {
			return Message{}, fmt.Errorf("transport: gob unit not fully consumed (%d bytes left)", t.feed.remaining)
		}
		return m, nil
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
		// A read this large bypasses br's buffer, so the socket fills
		// the pooled buffer directly. From here every failure returns
		// the buffer: the decoded body owns it only on success.
		var bulk []byte
		if bn > 0 {
			bulk = bufpool.Get(int(bn))
			if _, err := io.ReadFull(t.br, bulk); err != nil {
				bufpool.Put(bulk)
				return Message{}, err
			}
		}
		m, err := decodeBulkUnit(head, bulk)
		if err != nil {
			bufpool.Put(bulk)
			return Message{}, err
		}
		return m, nil
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

func (t *tcpConn) Close() error { return t.c.Close() }

// payloadFeed is the persistent gob decoder's view of the stream: it
// serves bytes from the shared bufio.Reader but refuses to read past
// the current unit's payload, so a decoding bug cannot desynchronize
// the unit framing. Implementing io.ByteReader keeps gob from wrapping
// it in another buffer (which would read ahead across unit boundaries).
type payloadFeed struct {
	br        *bufio.Reader
	remaining uint64
}

func (f *payloadFeed) Read(p []byte) (int, error) {
	if f.remaining == 0 {
		return 0, io.EOF
	}
	if uint64(len(p)) > f.remaining {
		p = p[:f.remaining]
	}
	n, err := f.br.Read(p)
	f.remaining -= uint64(n)
	return n, err
}

// ReadByte exists only to make payloadFeed an io.ByteReader, so that
// gob.NewDecoder reads it directly instead of wrapping it in a
// bufio.Reader that would read ahead across unit boundaries. Gob itself
// never calls it: its decoder reads through Read.
func (f *payloadFeed) ReadByte() (byte, error) {
	if f.remaining == 0 {
		return 0, io.EOF
	}
	b, err := f.br.ReadByte()
	if err == nil {
		f.remaining--
	}
	return b, err
}
