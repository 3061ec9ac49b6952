package dfs

import (
	"encoding/binary"
	"errors"
	"time"

	"repro/internal/bufpool"
	"repro/internal/transport"
)

// Binary frames: every wire type RegisterWire registers implements
// transport.Framer by hand, on the frameWriter/frameReader cursor below.
// A frame lists the struct's exported fields in a fixed order; integers
// are uvarints, signed ones zig-zag varints (but block sizes and the
// report frames' byte counts are uvarints of their two's complement: the
// five block and report layouts are fixed), and strings and lists carry
// a uvarint length or count.
// This file holds the cursor and the block and report frames; ctlframe.go
// holds the control-plane frames.
//
// WriteBlockReq and ReadBlockResp carry multi-megabyte payloads and
// travel as bulk units (transport.BulkFramer): a head with every field
// but Data, then Data, which the receiving transport lands in a bufpool
// buffer, in a datanode's replica slot (a write or a pull), or in
// the caller's CallInto destination for a ReadBlockResp. The datanode
// pipeline forward re-sends a WriteBlockReq with a shortened Pipeline,
// so it rides the same path. A decoded struct owns its pooled Data or
// holds one reference to its slot (a ReadBlockResp may borrow a
// destination instead, and Pooled says which); its sole holder calls
// Release once. Forgetting to Release pooled Data is safe, a slot
// reference is not; releasing twice or while aliases remain never is.
// DecodeFrame copies Data out of its argument.

var errShortFrame = errors.New("dfs: malformed frame")

// frameWriter appends frame fields; every method returns the extended
// buffer, like append, so a frame is one chain of calls.
type frameWriter []byte

func (w frameWriter) uvarint(v uint64) frameWriter { return binary.AppendUvarint(w, v) }
func (w frameWriter) varint(v int64) frameWriter   { return binary.AppendVarint(w, v) }
func (w frameWriter) byte(b byte) frameWriter      { return append(w, b) }

func (w frameWriter) str(s string) frameWriter {
	return append(w.uvarint(uint64(len(s))), s...)
}

func (w frameWriter) bytes(b []byte) frameWriter {
	return append(w.uvarint(uint64(len(b))), b...)
}

func (w frameWriter) bool(b bool) frameWriter {
	if b {
		return append(w, 1)
	}
	return append(w, 0)
}

func (w frameWriter) strs(ss []string) frameWriter {
	w = w.uvarint(uint64(len(ss)))
	for _, s := range ss {
		w = w.str(s)
	}
	return w
}

func (w frameWriter) ids(ids []BlockID) frameWriter { return appendIDList(w, ids) }

// time is a zero flag, then Unix seconds and nanoseconds. The location is
// not carried: receivers only compare times (Equal, Before).
func (w frameWriter) time(t time.Time) frameWriter {
	if t.IsZero() {
		return append(w, 0)
	}
	return append(w, 1).varint(t.Unix()).uvarint(uint64(t.Nanosecond()))
}

func (w frameWriter) block(b Block) frameWriter {
	return w.uvarint(uint64(b.ID)).uvarint(uint64(b.Size))
}

// located writes Tiers as a count, then one byte per tier.
func (w frameWriter) located(lb LocatedBlock) frameWriter {
	w = w.block(lb.Block).varint(lb.Offset).strs(lb.Nodes).uvarint(uint64(len(lb.Tiers)))
	for _, t := range lb.Tiers {
		w = append(w, byte(t))
	}
	return w.str(lb.Assigned).uvarint(uint64(lb.Checksum))
}

func (w frameWriter) locatedList(lbs []LocatedBlock) frameWriter {
	w = w.uvarint(uint64(len(lbs)))
	for _, lb := range lbs {
		w = w.located(lb)
	}
	return w
}

func (w frameWriter) info(fi FileInfo) frameWriter {
	return w.str(fi.Path).varint(fi.Size).varint(fi.BlockSize).varint(int64(fi.Replication)).bool(fi.Complete)
}

// Minimum encoded sizes of list elements: a decoder refuses a count that
// the bytes left cannot hold before it allocates the list, so a hostile
// count in a large unit cannot ask for gigabytes.
const (
	minLocatedSize = 7 // block (2), offset, two lists, Assigned, Checksum
	minInfoSize    = 5 // Path, Size, BlockSize, Replication, Complete
	minMigrateCmd  = 8 // block (2), Job, JobInputSize, time, Implicit, Checksum, Tier
	minBlockJob    = 2 // Block, Job: an EvictCmd or ReadNotifyCmd
)

// frameReader reads frame fields off the front of b. The first malformed
// field sets err and empties b, so every later read returns a zero value;
// a decoder reads every field, then checks done once. On an error the
// fields it assigned are meaningless.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) fail() {
	if r.err == nil {
		r.err = errShortFrame
	}
	r.b = nil
}

// done reports the first error, or an error if bytes remain unread.
func (r *frameReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail()
	}
	return r.err
}

func (r *frameReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *frameReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *frameReader) byte() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	b := r.b[0]
	r.b = r.b[1:]
	return b
}

func (r *frameReader) bool() bool {
	switch r.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail()
	return false
}

// bytes returns a length-prefixed byte string aliasing the frame.
func (r *frameReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *frameReader) str() string { return string(r.bytes()) }

// intern reads a string from a small population that repeats across
// messages (datanode addresses, job IDs), so repeats do not allocate.
func (r *frameReader) intern() string { return transport.InternBytes(r.bytes()) }

func (r *frameReader) job() JobID { return JobID(r.intern()) }

// sum reads a CRC32C checksum.
func (r *frameReader) sum() uint32 {
	v := r.uvarint()
	if v > 0xFFFFFFFF {
		r.fail()
	}
	return uint32(v)
}

// count reads a list count, refusing one the bytes left cannot hold at
// minSize bytes per element.
func (r *frameReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// makeList reads a list count and returns a list of that length, nil
// when it is empty.
func makeList[T any](r *frameReader, minSize int) []T {
	if n := r.count(minSize); n > 0 {
		return make([]T, n)
	}
	return nil
}

func (r *frameReader) strs() []string {
	ss := makeList[string](r, 1)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

// addrs reads a list of datanode addresses.
func (r *frameReader) addrs() []string {
	ss := makeList[string](r, 1)
	for i := range ss {
		ss[i] = r.intern()
	}
	return ss
}

// ids is the inverse of appendIDList. The list is a fresh allocation:
// report ID lists are retained past the decode (the namenode reconciles
// against them), so they must not alias scratch.
func (r *frameReader) ids() []BlockID {
	ids := makeList[BlockID](r, 1)
	var prev uint64
	for i := range ids {
		prev += r.uvarint()
		ids[i] = BlockID(prev)
	}
	return ids
}

func (r *frameReader) time() time.Time {
	switch r.byte() {
	case 0:
		return time.Time{}
	case 1:
		sec, nsec := r.varint(), r.uvarint()
		if nsec < 1e9 {
			// A set time that reads back as zero is not canonical.
			if t := time.Unix(sec, int64(nsec)); !t.IsZero() {
				return t
			}
		}
	}
	r.fail()
	return time.Time{}
}

func (r *frameReader) block() Block {
	return Block{ID: BlockID(r.uvarint()), Size: int64(r.uvarint())}
}

// located refuses a tier list whose length is neither 0 nor len(Nodes),
// and a tier above TierRAM.
func (r *frameReader) located() LocatedBlock {
	lb := LocatedBlock{Block: r.block(), Offset: r.varint(), Nodes: r.addrs(), Tiers: makeList[Tier](r, 1)}
	for i := range lb.Tiers {
		if lb.Tiers[i] = Tier(r.byte()); lb.Tiers[i] > TierRAM || len(lb.Tiers) != len(lb.Nodes) {
			r.fail()
		}
	}
	lb.Assigned, lb.Checksum = r.intern(), r.sum()
	return lb
}

func (r *frameReader) locatedList() []LocatedBlock {
	lbs := makeList[LocatedBlock](r, minLocatedSize)
	for i := range lbs {
		lbs[i] = r.located()
	}
	return lbs
}

func (r *frameReader) info() FileInfo {
	return FileInfo{Path: r.str(), Size: r.varint(), BlockSize: r.varint(),
		Replication: int(r.varint()), Complete: r.bool()}
}

// pooledCopy copies a frame's bulk bytes into a pooled buffer, so the
// frame stays the caller's. A zero-length payload stays nil (synthetic
// blocks).
func pooledCopy(raw []byte) []byte {
	if len(raw) == 0 {
		return nil
	}
	d := bufpool.Get(len(raw))
	copy(d, raw)
	return d
}

// ---- WriteBlockReq ----

// AppendHead implements transport.BulkFramer: every field but Data.
func (r *WriteBlockReq) AppendHead(buf []byte) []byte {
	return frameWriter(buf).block(r.Block).uvarint(uint64(r.Checksum)).strs(r.Pipeline)
}

// Bulk implements transport.BulkFramer.
func (r *WriteBlockReq) Bulk() []byte { return r.Data }

// AppendFrame implements transport.Framer: the head, then Data as a
// length-prefixed byte string.
func (r *WriteBlockReq) AppendFrame(buf []byte) []byte {
	return frameWriter(r.AppendHead(buf)).bytes(r.Data)
}

// readHead fills every field but Data.
func (r *WriteBlockReq) readHead(fr *frameReader) {
	r.Block = fr.block()
	r.Checksum = fr.sum()
	r.Pipeline = fr.addrs()
}

// DecodeHead implements transport.BulkFramer. A write request is a
// call, so its bulk is a slot the datanode's server chose, of which
// this struct now holds a reference, or else a pooled buffer, which it
// owns.
func (r *WriteBlockReq) DecodeHead(head []byte, bulk transport.Bulk) error {
	fr := frameReader{b: head}
	r.readHead(&fr)
	if err := fr.done(); err != nil {
		return err
	}
	r.Data, r.slot, r.sum = bulk.Data, bulk.Slot, landed(bulk)
	return nil
}

// DecodeFrame implements transport.Framer. The decoded Data is a pooled
// copy, owned as after DecodeHead.
func (r *WriteBlockReq) DecodeFrame(frame []byte) error {
	fr := frameReader{b: frame}
	r.readHead(&fr)
	raw := fr.bytes()
	if err := fr.done(); err != nil {
		return err
	}
	r.Data = pooledCopy(raw)
	return nil
}

// Release gives a decoded request's payload back: its slot reference,
// or its pooled Data buffer. Only the sole holder may call it, and only
// once.
func (r *WriteBlockReq) Release() {
	if r.slot != nil {
		r.slot.Release()
	} else {
		bufpool.Put(r.Data)
	}
	r.Data, r.slot, r.sum = nil, nil, landedSum{}
}

// ---- ReadBlockReq ----

// Unknown flag bits are ignored on decode, so a newer sender's bits do
// not fail an older receiver.
const (
	rqFlagLocal          = 0x01
	rqFlagReaderVerifies = 0x02
)

// AppendFrame implements transport.Framer.
func (r *ReadBlockReq) AppendFrame(buf []byte) []byte {
	var flags byte
	if r.Local {
		flags |= rqFlagLocal
	}
	if r.ReaderVerifies {
		flags |= rqFlagReaderVerifies
	}
	return frameWriter(buf).uvarint(uint64(r.Block)).byte(flags).str(string(r.Job))
}

// DecodeFrame implements transport.Framer.
func (r *ReadBlockReq) DecodeFrame(payload []byte) error {
	fr := frameReader{b: payload}
	r.Block = BlockID(fr.uvarint())
	flags := fr.byte()
	r.Local = flags&rqFlagLocal != 0
	r.ReaderVerifies = flags&rqFlagReaderVerifies != 0
	r.Job = fr.job()
	return fr.done()
}

// ---- ReadBlockResp ----

const (
	rbFlagFromMemory = 0x01
	rbFlagLocal      = 0x02
)

// AppendHead implements transport.BulkFramer: every field but Data.
func (r *ReadBlockResp) AppendHead(buf []byte) []byte {
	var flags byte
	if r.FromMemory {
		flags |= rbFlagFromMemory
	}
	if r.Local {
		flags |= rbFlagLocal
	}
	return frameWriter(buf).uvarint(uint64(r.Size)).byte(flags)
}

// Bulk implements transport.BulkFramer.
func (r *ReadBlockResp) Bulk() []byte { return r.Data }

// AppendFrame implements transport.Framer: the head, then Data as a
// length-prefixed byte string.
func (r *ReadBlockResp) AppendFrame(buf []byte) []byte {
	return frameWriter(r.AppendHead(buf)).bytes(r.Data)
}

// readHead fills every field but Data.
func (r *ReadBlockResp) readHead(fr *frameReader) {
	r.Size = int64(fr.uvarint())
	flags := fr.byte()
	r.FromMemory = flags&rbFlagFromMemory != 0
	r.Local = flags&rbFlagLocal != 0
}

// DecodeHead implements transport.BulkFramer. A pooled bulk is a
// buffer this struct now owns, and a slot one it holds a reference to
// (transport.CallIntoSlot); the sole holder must eventually call
// Release. A bulk in neither is the destination the caller passed to
// transport.CallInto: Data borrows it, Pooled reports false and Release
// leaves it alone.
func (r *ReadBlockResp) DecodeHead(head []byte, bulk transport.Bulk) error {
	fr := frameReader{b: head}
	r.readHead(&fr)
	if err := fr.done(); err != nil {
		return err
	}
	r.Data, r.slot, r.pooled = bulk.Data, bulk.Slot, bulk.Pooled && bulk.Data != nil
	r.sum = landed(bulk)
	return nil
}

// DecodeFrame implements transport.Framer. The decoded Data is a pooled
// copy, owned as after DecodeHead.
func (r *ReadBlockResp) DecodeFrame(frame []byte) error {
	fr := frameReader{b: frame}
	r.readHead(&fr)
	raw := fr.bytes()
	if err := fr.done(); err != nil {
		return err
	}
	r.Data = pooledCopy(raw)
	r.pooled = r.Data != nil
	return nil
}

// Pooled reports whether Data is a bufpool buffer owned by the holder
// (set only by the TCP fast-path decode).
func (r *ReadBlockResp) Pooled() bool { return r.pooled }

// Release gives back what the struct holds of its payload: the slot
// reference, or the pooled Data buffer, and clears its claim on it.
// Only the sole holder may call it, and only once; it is a no-op for a
// borrowed payload.
func (r *ReadBlockResp) Release() {
	switch {
	case r.slot != nil:
		r.slot.Release()
	case r.pooled:
		bufpool.Put(r.Data)
	default:
		return
	}
	r.Data, r.slot, r.pooled, r.sum = nil, nil, false, landedSum{}
}

// ---- control-plane report frames ----

// appendIDList frames a block-ID list as a uvarint count followed by the
// IDs delta-encoded against the previous entry. Report senders build
// their lists sorted ascending, so consecutive gaps are small and most
// IDs cost one or two bytes instead of up to ten; unsorted lists still
// round-trip (the delta wraps around uint64).
func appendIDList(buf []byte, ids []BlockID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	var prev uint64
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id)-prev)
		prev = uint64(id)
	}
	return buf
}

// AppendFrame implements transport.Framer. At 1000 datanodes the
// heartbeat is the highest-rate control-plane message.
func (r *HeartbeatReq) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).str(r.Addr).uvarint(r.Seq).uvarint(r.Epoch).
		ids(r.Pinned).ids(r.Unpinned).ids(r.Added).ids(r.Removed).
		ids(r.SSDPinned).ids(r.SSDUnpinned)
}

// DecodeFrame implements transport.Framer.
func (r *HeartbeatReq) DecodeFrame(payload []byte) error {
	fr := frameReader{b: payload}
	r.Addr, r.Seq, r.Epoch = fr.intern(), fr.uvarint(), fr.uvarint()
	r.Pinned, r.Unpinned, r.Added, r.Removed = fr.ids(), fr.ids(), fr.ids(), fr.ids()
	r.SSDPinned, r.SSDUnpinned = fr.ids(), fr.ids()
	return fr.done()
}
