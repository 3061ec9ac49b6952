package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// Framer is the binary fast path for hot wire structs. A type that
// implements it (on its pointer receiver) is sent over TCP as a binary
// frame — hand-written fields — instead of going through
// reflection-based gob encoding. Small control messages never bother:
// gob is fine for them, and the fallback is automatic for any body type
// that is not registered with RegisterFramer. A type that carries a
// block payload implements BulkFramer as well.
//
// AppendFrame appends the frame bytes to buf and returns the extended
// slice, exactly like append: it must not retain buf.
//
// DecodeFrame parses a frame produced by AppendFrame. The payload slice
// is the caller's (for the transport, receive scratch), valid only for
// the duration of the call — an implementation copies out whatever it
// retains (see DESIGN.md "Wire format & buffer ownership").
type Framer interface {
	AppendFrame(buf []byte) []byte
	DecodeFrame(payload []byte) error
}

// BulkFramer is a Framer whose frame ends in one bulk byte string — a
// block payload. Over TCP such a body travels as a bulk unit (see
// tcp.go): the head and the bulk bytes are framed separately, so Send
// writes the bulk straight from the body's slice and Recv reads it
// straight into the buffer the decoded body will own. Bulk bytes are
// never staged in conn scratch.
//
// AppendHead appends every field except the bulk bytes, and Bulk returns
// those bytes; the transport only reads them, and only until Send
// returns. AppendFrame's output is AppendHead's followed by the bulk as
// a uvarint-length-prefixed byte string, so there is one field layout.
//
// DecodeHead parses a head produced by AppendHead, with nothing left
// over, and adopts bulk as the body's payload. bulk is nil for an empty
// payload and otherwise a bufpool buffer that Recv filled from the
// socket. On a nil return the body owns it: its eventual sole holder
// returns it to the pool or keeps it forever. On an error the transport
// still owns it and returns it. head is receive scratch, as in
// DecodeFrame.
type BulkFramer interface {
	Framer
	AppendHead(buf []byte) []byte
	Bulk() []byte
	DecodeHead(head, bulk []byte) error
}

// framerInfo is one registered fast-path body type. The head functions
// are set only for a BulkFramer.
type framerInfo struct {
	name       string
	encode     func(body any, buf []byte) []byte
	decode     func(payload []byte) (any, error)
	encodeHead func(body any, buf []byte) (head, bulk []byte)
	decodeHead func(head, bulk []byte) (any, error)
}

var (
	framerMu     sync.RWMutex
	framerByType = map[reflect.Type]*framerInfo{}
	framerByName = map[string]*framerInfo{}
)

// RegisterFramer registers T as a fast-path body type for the TCP
// transport. *T must implement Framer; message bodies carry T by
// value, matching how gob bodies are registered. Like gob.Register,
// call it once per type from the package that defines the wire struct.
// Registering the same type twice is safe; two types with the same
// name is not. When *T is also a BulkFramer its messages travel as bulk
// units.
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
		info.encodeHead = func(body any, buf []byte) ([]byte, []byte) {
			p := borrow(body)
			bf := any(PT(p)).(BulkFramer)
			buf = bf.AppendHead(buf)
			bulk := bf.Bulk()
			giveBack(p)
			return buf, bulk
		}
		info.decodeHead = func(head, bulk []byte) (any, error) {
			var v T
			if err := any(PT(&v)).(BulkFramer).DecodeHead(head, bulk); err != nil {
				return nil, err
			}
			return v, nil
		}
	}
	framerMu.Lock()
	defer framerMu.Unlock()
	if old, ok := framerByType[t]; ok {
		// Same type re-registered (RegisterWire is callable twice):
		// keep the existing entry so name lookups stay stable.
		_ = old
		return
	}
	if _, ok := framerByName[info.name]; ok {
		panic(fmt.Sprintf("transport: duplicate framer name %q", info.name))
	}
	framerByType[t] = info
	framerByName[info.name] = info
}

// lookupFramer returns the fast-path codec for a message body, if one
// is registered.
func lookupFramer(body any) (*framerInfo, bool) {
	if body == nil {
		return nil, false
	}
	framerMu.RLock()
	fi, ok := framerByType[reflect.TypeOf(body)]
	framerMu.RUnlock()
	return fi, ok
}

// lookupFramerByName looks a codec up by wire type name. It takes the
// raw frame bytes so the map index's string conversion stays on the
// stack (a string(name) argument would heap-allocate per message).
func lookupFramerByName(name []byte) (*framerInfo, bool) {
	framerMu.RLock()
	fi, ok := framerByName[string(name)]
	framerMu.RUnlock()
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

// errFrame reports a malformed fast-path frame; the conn treats it as a
// protocol error and tears down.
var errFrame = errors.New("transport: malformed frame")

// Fast-unit payload layout (everything little-endian uvarint unless
// noted):
//
//	uvarint  message ID
//	1 byte   flags (bit 0: Reply)
//	uvarint  len(Method) || Method bytes
//	uvarint  len(Err)    || Err bytes
//	uvarint  len(body type name) || name bytes
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

// decodeBulkUnit parses a bulk unit: head is receive scratch as above,
// bulk is the pooled buffer (nil when empty) the decoded body adopts.
// On an error the caller still owns bulk.
func decodeBulkUnit(head, bulk []byte) (Message, error) {
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
