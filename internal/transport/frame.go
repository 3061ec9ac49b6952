package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
)

// Framer is the TCP transport's codec for a message body: hand-written
// binary fields, no reflection. Every body type sent over TCP implements
// it (on its pointer receiver) and is registered with RegisterFramer;
// Send refuses any other body type. A type that carries a block payload
// implements BulkFramer as well.
//
// AppendFrame appends the frame bytes to buf and returns the extended
// slice, exactly like append: it must not retain buf.
//
// DecodeFrame parses a frame produced by AppendFrame, and fails unless
// it consumes all of it. The payload slice is the caller's (for the
// transport, receive scratch), valid only for the duration of the call —
// an implementation copies out whatever it retains (see DESIGN.md "Wire
// format & buffer ownership").
type Framer interface {
	AppendFrame(buf []byte) []byte
	DecodeFrame(payload []byte) error
}

// BulkFramer is a Framer whose frame ends in one bulk byte string — a
// block payload. Such a body travels as a bulk unit: the head and the
// bulk bytes are framed separately, and recvBulk lands the bulk bytes
// in the memory the decoded body will own, hold a slot reference to, or
// borrow, read from the socket (tcp.go) or copied at the in-memory Send
// (inmem.go). Bulk bytes are never staged in conn scratch.
//
// AppendHead appends every field except the bulk bytes, and Bulk returns
// those bytes; the transport only reads them, and only until Send
// returns. AppendFrame's output is AppendHead's followed by the bulk as
// a uvarint-length-prefixed byte string, so there is one field layout.
//
// DecodeHead parses a head produced by AppendHead, with nothing left
// over, and adopts bulk as the body's payload: on a nil return the body
// holds what bulk says (see Bulk), and may keep bulk.Sum as its
// payload's checksum; on an error the transport still holds it and
// gives it back. bulk.Data is nil for an empty payload. head is
// receive scratch, as in DecodeFrame.
type BulkFramer interface {
	Framer
	AppendHead(buf []byte) []byte
	Bulk() []byte
	DecodeHead(head []byte, bulk Bulk) error
}

// Bulk is a received bulk unit's payload and who holds its memory. Data
// in neither a slot nor the pool is borrowed: the destination a caller
// passed to CallInto, which the body must never give away.
type Bulk struct {
	Data []byte
	// Slot is the arena slot Data lies in, of which the body holds one
	// reference (see SlotHolder).
	Slot *bufpool.Slot
	// Pooled marks Data as a bufpool buffer the body owns: its eventual
	// sole holder puts it back, or forgets it for the collector.
	Pooled bool
	// Sum is the CRC32C (Castagnoli) of Data, folded in chunk by chunk
	// as recvBulk landed the bytes, so a receiver that verifies the
	// payload needs no second pass over it. Summed reports that Sum was
	// taken: a Bulk that did not come through recvBulk, or an empty one,
	// carries none.
	Sum    uint32
	Summed bool
}

// landChunk bounds each read that lands bulk bytes: the chunk is summed
// right after the read that filled it, while it is still in cache.
const landChunk = 256 << 10

// castagnoli is the CRC32C table; crc32 runs it on the CPU's CRC
// instructions where there are any.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// land fills b.Data from src in chunks of at most landChunk bytes,
// folding each chunk into a running CRC32C right after the read that
// filled it. Only a complete landing sets Sum and Summed.
func (b *Bulk) land(src io.Reader) error {
	var sum uint32
	for rest := b.Data; len(rest) > 0; {
		chunk := rest[:min(len(rest), landChunk)]
		if _, err := io.ReadFull(src, chunk); err != nil {
			return err
		}
		sum = crc32.Update(sum, castagnoli, chunk)
		rest = rest[len(chunk):]
	}
	b.Sum, b.Summed = sum, true
	return nil
}

// SlotHolder is a body that may hold a reference to the arena slot its
// bulk bytes lie in. Its holder releases the reference; a Server does
// so for a reply once the reply's Send returned, and a Client for a
// reply that no call takes.
type SlotHolder interface {
	Slot() *bufpool.Slot
}

// inSlot lands bulk bytes in slot; a nil slot leaves them pooled.
func inSlot(slot *bufpool.Slot) Bulk {
	if slot == nil {
		return Bulk{}
	}
	return Bulk{Data: slot.Bytes(), Slot: slot}
}

// drop gives back what a body that was never decoded would have held.
func (b Bulk) drop() {
	if b.Slot != nil {
		b.Slot.Release()
	} else if b.Pooled {
		bufpool.Put(b.Data)
	}
}

// framerInfo is one registered body type. The bulk and head functions
// are set only for a BulkFramer.
type framerInfo struct {
	name       string
	encode     func(body any, buf []byte) []byte
	decode     func(payload []byte) (any, error)
	bulk       func(body any) []byte
	encodeHead func(body any, buf []byte) (head, bulk []byte)
	decodeHead func(head []byte, bulk Bulk) (any, error)
}

// nilBody is the codec of a message without a body (an error reply): an
// empty type name and an empty frame.
var nilBody = &framerInfo{
	encode: func(_ any, buf []byte) []byte { return buf },
	decode: func(payload []byte) (any, error) {
		if len(payload) != 0 {
			return nil, errFrame
		}
		return nil, nil
	},
}

// framerTables are the registered codecs by Go type and by wire name.
// A published table is never written again: registration copies it,
// adds the type and publishes the copy, so a lookup (on every Send and
// every TCP receive) takes no lock.
type framerTables struct {
	byType map[reflect.Type]*framerInfo
	byName map[string]*framerInfo
}

var (
	framerMu sync.Mutex // serialises registrations
	framers  atomic.Pointer[framerTables]
)

func init() {
	framers.Store(&framerTables{
		byType: map[reflect.Type]*framerInfo{},
		byName: map[string]*framerInfo{"": nilBody},
	})
}

// RegisterFramer registers T as a body type for the TCP transport. *T
// must implement Framer; message bodies carry T by value. Call it once
// per type from the package that defines the wire struct. Registering
// the same type twice is safe; two types with the same name is not. When
// *T is also a BulkFramer its messages travel as bulk units.
func RegisterFramer[T any, PT interface {
	*T
	Framer
}]() {
	t := reflect.TypeOf((*T)(nil)).Elem()
	// Encoding stages the body through a pooled *T: asserting to a local
	// (`v := body.(T)`) and calling AppendFrame on &v sends the copy to
	// the heap every message, because the pointer escapes through the
	// Framer interface. Copying into pooled scratch keeps the steady
	// state allocation-free; the scratch is zeroed before going back so
	// it never pins a message's bulk payload.
	scratch := &sync.Pool{New: func() any { return new(T) }}
	borrow := func(body any) *T {
		p := scratch.Get().(*T)
		*p = body.(T)
		return p
	}
	giveBack := func(p *T) {
		var zero T
		*p = zero
		scratch.Put(p)
	}
	info := &framerInfo{
		name: t.String(),
		encode: func(body any, buf []byte) []byte {
			p := borrow(body)
			buf = PT(p).AppendFrame(buf)
			giveBack(p)
			return buf
		},
		decode: func(payload []byte) (any, error) {
			var v T
			if err := PT(&v).DecodeFrame(payload); err != nil {
				return nil, err
			}
			return v, nil
		},
	}
	if _, ok := any(PT(nil)).(BulkFramer); ok {
		info.bulk = func(body any) []byte {
			p := borrow(body)
			bulk := any(PT(p)).(BulkFramer).Bulk()
			giveBack(p)
			return bulk
		}
		info.encodeHead = func(body any, buf []byte) ([]byte, []byte) {
			p := borrow(body)
			bf := any(PT(p)).(BulkFramer)
			buf = bf.AppendHead(buf)
			bulk := bf.Bulk()
			giveBack(p)
			return buf, bulk
		}
		info.decodeHead = func(head []byte, bulk Bulk) (any, error) {
			var v T
			if err := any(PT(&v)).(BulkFramer).DecodeHead(head, bulk); err != nil {
				return nil, err
			}
			return v, nil
		}
	}
	framerMu.Lock()
	defer framerMu.Unlock()
	old := framers.Load()
	if _, ok := old.byType[t]; ok {
		// Same type re-registered: keep the existing entry so name
		// lookups stay stable.
		return
	}
	if _, ok := old.byName[info.name]; ok {
		panic(fmt.Sprintf("transport: duplicate framer name %q", info.name))
	}
	next := &framerTables{byType: maps.Clone(old.byType), byName: maps.Clone(old.byName)}
	next.byType[t] = info
	next.byName[info.name] = info
	framers.Store(next)
}

// lookupFramer returns the codec for a message body, if one is
// registered.
func lookupFramer(body any) (*framerInfo, bool) {
	if body == nil {
		return nilBody, true
	}
	fi, ok := framers.Load().byType[reflect.TypeOf(body)]
	return fi, ok
}

// lookupFramerByName looks a codec up by wire type name. It takes the
// raw frame bytes so the map index's string conversion stays on the
// stack (a string(name) argument would heap-allocate per message).
func lookupFramerByName(name []byte) (*framerInfo, bool) {
	fi, ok := framers.Load().byName[string(name)]
	return fi, ok
}

// String interning: fast units carry the method name on every request,
// and materializing it with string(b) was a per-message allocation in
// read-path profiles. The vocabulary is tiny (registered RPC method
// names, plus low-cardinality wire strings like job IDs that Framer
// implementations intern via InternBytes), so a bounded intern table
// makes the common case allocation-free; the bound keeps a malicious
// peer from growing the table without limit — past it, lookups still
// hit for known strings and unknown ones just fall back to a copy.
var (
	internMu  sync.RWMutex
	internTab = map[string]string{}
)

const internTabMax = 1024

// InternBytes returns string(b), served from the bounded intern table
// when possible. Framer implementations use it for low-cardinality
// strings decoded on every message (e.g. job IDs) so repeat values do
// not allocate.
func InternBytes(b []byte) string { return internString(b) }

func internString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	internMu.RLock()
	s, ok := internTab[string(b)]
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if len(internTab) < internTabMax {
		internTab[s] = s
	}
	internMu.Unlock()
	return s
}

// errFrame reports a malformed frame; the conn treats it as a
// protocol error and tears down.
var errFrame = errors.New("transport: malformed frame")

// Fast-unit payload layout (everything little-endian uvarint unless
// noted):
//
//	uvarint  message ID
//	1 byte   flags (bit 0: Reply)
//	uvarint  len(Method) || Method bytes
//	uvarint  len(Err)    || Err bytes
//	uvarint  len(body type name) || name bytes (empty: no body)
//	...      body frame (AppendFrame output), to end of unit
//
// The head of a bulk unit has the same layout with the body's head
// (AppendHead output) in place of its frame.
const fastFlagReply = 0x01

// appendEnvelope serializes everything of a fast or bulk unit that
// precedes the body. buf is the conn's reusable staging buffer.
func appendEnvelope(buf []byte, m *Message, fi *framerInfo) []byte {
	buf = binary.AppendUvarint(buf, m.ID)
	var flags byte
	if m.Reply {
		flags |= fastFlagReply
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(m.Method)))
	buf = append(buf, m.Method...)
	buf = binary.AppendUvarint(buf, uint64(len(m.Err)))
	buf = append(buf, m.Err...)
	buf = binary.AppendUvarint(buf, uint64(len(fi.name)))
	return append(buf, fi.name...)
}

// appendFastUnitPayload serializes a message whose body has a
// registered framer.
func appendFastUnitPayload(buf []byte, m *Message, fi *framerInfo) []byte {
	return fi.encode(m.Body, appendEnvelope(buf, m, fi))
}

// appendBulkUnitHead serializes the head of a message whose body is a
// BulkFramer and returns the bulk bytes to send after it.
func appendBulkUnitHead(buf []byte, m *Message, fi *framerInfo) (head, bulk []byte) {
	return fi.encodeHead(m.Body, appendEnvelope(buf, m, fi))
}

// uvarint reads one uvarint off b, returning the value and the rest.
func uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errFrame
	}
	return v, b[n:], nil
}

// uvarintBytes reads a uvarint-length-prefixed byte string off b.
func uvarintBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, errFrame
	}
	return rest[:n], rest[n:], nil
}

// decodeEnvelope parses what appendEnvelope wrote off the front of a
// fast or bulk unit: the message without its body, the body's codec, and
// the bytes that follow. payload is receive scratch owned by the conn;
// the returned Message does not retain it — Method/Err are string copies.
func decodeEnvelope(payload []byte) (m Message, fi *framerInfo, rest []byte, err error) {
	id, rest, err := uvarint(payload)
	if err != nil {
		return m, nil, nil, err
	}
	if len(rest) == 0 {
		return m, nil, nil, errFrame
	}
	flags := rest[0]
	rest = rest[1:]
	method, rest, err := uvarintBytes(rest)
	if err != nil {
		return m, nil, nil, err
	}
	errStr, rest, err := uvarintBytes(rest)
	if err != nil {
		return m, nil, nil, err
	}
	name, rest, err := uvarintBytes(rest)
	if err != nil {
		return m, nil, nil, err
	}
	fi, ok := lookupFramerByName(name)
	if !ok {
		return m, nil, nil, fmt.Errorf("transport: frame for unregistered type %q", name)
	}
	m.ID = id
	m.Reply = flags&fastFlagReply != 0
	m.Method = internString(method)
	m.Err = string(errStr)
	return m, fi, rest, nil
}

// decodeFastUnitPayload parses a fast unit. The decoded body must not
// retain payload (the Framer contract).
func decodeFastUnitPayload(payload []byte) (Message, error) {
	m, fi, rest, err := decodeEnvelope(payload)
	if err != nil {
		return Message{}, err
	}
	if m.Body, err = fi.decode(rest); err != nil {
		return Message{}, err
	}
	return m, nil
}

// peekHead reads the message ID, the reply flag and the method off the
// front of a bulk unit's head: the part of decodeEnvelope the receive
// path needs before it chooses where the bulk bytes go. The whole head
// is decoded, and checked, only after the bulk is read.
func peekHead(head []byte) (id uint64, reply bool, method []byte, ok bool) {
	id, rest, err := uvarint(head)
	if err != nil || len(rest) == 0 {
		return 0, false, nil, false
	}
	reply = rest[0]&fastFlagReply != 0
	if method, _, err = uvarintBytes(rest[1:]); err != nil {
		return 0, false, nil, false
	}
	return id, reply, method, true
}

// Dsts chooses where a receiving conn lands the bulk bytes of a message:
// a Client lands a reply in the destination its call passed to CallInto
// or in a slot CallIntoSlot allocates, and a Server lands a call to a
// HandleInto method in a fresh slot. A Client hands itself to its conn
// (DstConn), a Server to its listener (DstListener).
type Dsts interface {
	// claimDst returns where the n bulk bytes of the unit whose head
	// starts with id, reply and method land, or a Bulk without Data for
	// a pooled buffer. A borrowed destination (a Client's; not a slot)
	// stays claimed until the Client's releaseDst.
	claimDst(id uint64, reply bool, method []byte, n int) Bulk
}

// recvBulk is the one receive path of a bulk unit, on both transports:
// it lands the unit's n bulk bytes from src in memory, taking their
// CRC32C as they land (Bulk.Sum), then decodes the head around them. The
// memory is what dsts (nil: none) claims for the unit, held until the
// read ends, and a pooled buffer otherwise. On any failure a pooled
// buffer goes back to the pool and a slot's reference is released.
func recvBulk(dsts Dsts, head []byte, n int, src io.Reader) (m Message, err error) {
	var bulk Bulk
	if n > 0 {
		if dsts != nil {
			if id, reply, method, ok := peekHead(head); ok {
				bulk = dsts.claimDst(id, reply, method, n)
			}
		}
		claimed := bulk.Data != nil
		if !claimed {
			bulk = Bulk{Data: bufpool.Get(n), Pooled: true}
		}
		err = bulk.land(src)
		if claimed && bulk.Slot == nil {
			dsts.(*Client).releaseDst()
		}
	}
	if err == nil {
		m, err = decodeBulkUnit(head, bulk)
	}
	if err != nil {
		bulk.drop()
	}
	return m, err
}

// decodeBulkUnit parses a bulk unit: head is receive scratch as above,
// bulk (Data nil when empty) is the payload the decoded body adopts. On
// an error the caller still holds bulk.
func decodeBulkUnit(head []byte, bulk Bulk) (Message, error) {
	m, fi, rest, err := decodeEnvelope(head)
	if err != nil {
		return Message{}, err
	}
	if fi.decodeHead == nil {
		return Message{}, fmt.Errorf("transport: bulk unit for non-bulk type %q", fi.name)
	}
	if m.Body, err = fi.decodeHead(rest, bulk); err != nil {
		return Message{}, err
	}
	return m, nil
}

// releaseReply releases the slot reference a reply body holds, once
// nothing reads its bytes any more.
func releaseReply(body any) {
	if h, ok := body.(SlotHolder); ok {
		if s := h.Slot(); s != nil {
			s.Release()
		}
	}
}
