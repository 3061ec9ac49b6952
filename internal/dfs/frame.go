package dfs

import (
	"encoding/binary"
	"errors"

	"repro/internal/bufpool"
	"repro/internal/transport"
)

// Binary fast-path frames for the bulk block messages.
//
// WriteBlockReq and ReadBlockResp carry multi-megabyte payloads; over
// TCP they travel as bulk units (transport.BulkFramer): a hand-framed
// head with every field but Data, then Data itself, which the sending
// conn writes straight from this struct's slice and the receiving conn
// reads straight into a bufpool buffer. The datanode pipeline forward
// reuses WriteBlockReq (the receiving node re-sends the request with a
// shortened Pipeline), so it rides the same path.
//
// Ownership: a decoded struct whose Data is non-empty owns a pooled
// buffer and says so through Pooled. DecodeHead adopts the buffer the
// transport filled; the whole-frame DecodeFrame copies Data out of its
// argument, which stays the caller's to reuse. The eventual sole owner
// calls Release to return the buffer; forgetting to Release is safe
// (the buffer is garbage collected), releasing twice or while aliases
// remain is not. The in-memory transport passes bodies by reference and
// never sets pooled, so inmem payloads — which alias datanode stores
// and writer buffers — are never returned to the pool.

var errShortFrame = errors.New("dfs: malformed block frame")

func frameUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errShortFrame
	}
	return v, b[n:], nil
}

func frameBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := frameUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, errShortFrame
	}
	return rest[:n], rest[n:], nil
}

// appendBulk ends a whole frame: the bulk bytes as a length-prefixed
// byte string after the head.
func appendBulk(head, bulk []byte) []byte {
	head = binary.AppendUvarint(head, uint64(len(bulk)))
	return append(head, bulk...)
}

// decodeBulk is the inverse of appendBulk for what a head decoder left
// over: one byte string and nothing after it, copied into a pooled
// buffer so the frame stays the caller's. A zero-length payload stays
// nil (synthetic blocks).
func decodeBulk(rest []byte) ([]byte, error) {
	raw, rest, err := frameBytes(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errShortFrame
	}
	if len(raw) == 0 {
		return nil, nil
	}
	d := bufpool.Get(len(raw))
	copy(d, raw)
	return d, nil
}

// ---- WriteBlockReq ----

const wbFlagEager = 0x01

// AppendHead implements transport.BulkFramer: every field but Data.
func (r *WriteBlockReq) AppendHead(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.Block.ID))
	buf = binary.AppendUvarint(buf, uint64(r.Block.Size))
	var flags byte
	if r.EagerPipeline {
		flags |= wbFlagEager
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(r.Checksum))
	buf = binary.AppendUvarint(buf, uint64(len(r.Pipeline)))
	for _, p := range r.Pipeline {
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// Bulk implements transport.BulkFramer.
func (r *WriteBlockReq) Bulk() []byte { return r.Data }

// AppendFrame implements transport.Framer.
func (r *WriteBlockReq) AppendFrame(buf []byte) []byte {
	return appendBulk(r.AppendHead(buf), r.Data)
}

// decodeHead fills every field but Data from the front of b and returns
// what follows the head.
func (r *WriteBlockReq) decodeHead(b []byte) ([]byte, error) {
	id, rest, err := frameUvarint(b)
	if err != nil {
		return nil, err
	}
	size, rest, err := frameUvarint(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) == 0 {
		return nil, errShortFrame
	}
	flags := rest[0]
	rest = rest[1:]
	sum, rest, err := frameUvarint(rest)
	if err != nil {
		return nil, err
	}
	if sum > 0xFFFFFFFF {
		return nil, errShortFrame
	}
	np, rest, err := frameUvarint(rest)
	if err != nil {
		return nil, err
	}
	if np > uint64(len(rest)) { // each entry needs ≥1 byte
		return nil, errShortFrame
	}
	var pipeline []string
	if np > 0 {
		pipeline = make([]string, 0, np)
		for i := uint64(0); i < np; i++ {
			var pb []byte
			pb, rest, err = frameBytes(rest)
			if err != nil {
				return nil, err
			}
			pipeline = append(pipeline, string(pb))
		}
	}
	r.Block = Block{ID: BlockID(id), Size: int64(size)}
	r.EagerPipeline = flags&wbFlagEager != 0
	r.Checksum = uint32(sum)
	r.Pipeline = pipeline
	return rest, nil
}

// DecodeHead implements transport.BulkFramer. bulk, when non-nil, is a
// pooled buffer this struct now owns; the sole owner must eventually
// call Release (or keep the buffer forever, as the datanode block store
// does).
func (r *WriteBlockReq) DecodeHead(head, bulk []byte) error {
	rest, err := r.decodeHead(head)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errShortFrame
	}
	r.Data, r.pooled = bulk, bulk != nil
	return nil
}

// DecodeFrame implements transport.Framer. The decoded Data is a pooled
// copy, owned as after DecodeHead.
func (r *WriteBlockReq) DecodeFrame(frame []byte) error {
	rest, err := r.decodeHead(frame)
	if err != nil {
		return err
	}
	data, err := decodeBulk(rest)
	if err != nil {
		return err
	}
	r.Data, r.pooled = data, data != nil
	return nil
}

// Pooled reports whether Data is a bufpool buffer owned by the holder
// (set only by the TCP fast-path decode).
func (r *WriteBlockReq) Pooled() bool { return r.pooled }

// Release returns a pooled Data buffer to the pool and clears the
// struct's claim on it. Only the sole owner may call it, and only once;
// it is a no-op for non-pooled payloads.
func (r *WriteBlockReq) Release() {
	if r.pooled {
		bufpool.Put(r.Data)
		r.Data = nil
		r.pooled = false
	}
}

// ---- ReadBlockReq ----

// Unknown flag bits are ignored on decode, so a newer sender's bits do
// not fail an older receiver.
const (
	rqFlagLocal          = 0x01
	rqFlagReaderVerifies = 0x02
)

// AppendFrame implements transport.Framer. ReadBlockReq carries no bulk
// payload, but it precedes every block fetch: profiling the TCP read
// path showed the gob encode/decode of this small request was a top
// remaining allocation site once the response rode the fast path, so the
// request is framed too.
func (r *ReadBlockReq) AppendFrame(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.Block))
	var flags byte
	if r.Local {
		flags |= rqFlagLocal
	}
	if r.ReaderVerifies {
		flags |= rqFlagReaderVerifies
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(r.Job)))
	return append(buf, r.Job...)
}

// DecodeFrame implements transport.Framer.
func (r *ReadBlockReq) DecodeFrame(payload []byte) error {
	id, rest, err := frameUvarint(payload)
	if err != nil {
		return err
	}
	if len(rest) == 0 {
		return errShortFrame
	}
	flags := rest[0]
	rest = rest[1:]
	job, rest, err := frameBytes(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errShortFrame
	}
	r.Block = BlockID(id)
	r.Local = flags&rqFlagLocal != 0
	r.ReaderVerifies = flags&rqFlagReaderVerifies != 0
	// Job IDs repeat across every block fetch of a job, so intern the
	// string instead of copying it out of the frame each time.
	r.Job = JobID(transport.InternBytes(job))
	return nil
}

// ---- ReadBlockResp ----

const (
	rbFlagFromMemory = 0x01
	rbFlagLocal      = 0x02
)

// AppendHead implements transport.BulkFramer: every field but Data.
func (r *ReadBlockResp) AppendHead(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.Size))
	var flags byte
	if r.FromMemory {
		flags |= rbFlagFromMemory
	}
	if r.Local {
		flags |= rbFlagLocal
	}
	return append(buf, flags)
}

// Bulk implements transport.BulkFramer.
func (r *ReadBlockResp) Bulk() []byte { return r.Data }

// AppendFrame implements transport.Framer.
func (r *ReadBlockResp) AppendFrame(buf []byte) []byte {
	return appendBulk(r.AppendHead(buf), r.Data)
}

// decodeHead fills every field but Data from the front of b and returns
// what follows the head.
func (r *ReadBlockResp) decodeHead(b []byte) ([]byte, error) {
	size, rest, err := frameUvarint(b)
	if err != nil {
		return nil, err
	}
	if len(rest) == 0 {
		return nil, errShortFrame
	}
	flags := rest[0]
	r.Size = int64(size)
	r.FromMemory = flags&rbFlagFromMemory != 0
	r.Local = flags&rbFlagLocal != 0
	return rest[1:], nil
}

// DecodeHead implements transport.BulkFramer. bulk, when non-nil, is a
// pooled buffer this struct now owns; the sole owner must eventually
// call Release.
func (r *ReadBlockResp) DecodeHead(head, bulk []byte) error {
	rest, err := r.decodeHead(head)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errShortFrame
	}
	r.Data, r.pooled = bulk, bulk != nil
	return nil
}

// DecodeFrame implements transport.Framer. The decoded Data is a pooled
// copy, owned as after DecodeHead.
func (r *ReadBlockResp) DecodeFrame(frame []byte) error {
	rest, err := r.decodeHead(frame)
	if err != nil {
		return err
	}
	data, err := decodeBulk(rest)
	if err != nil {
		return err
	}
	r.Data, r.pooled = data, data != nil
	return nil
}

// Pooled reports whether Data is a bufpool buffer owned by the holder
// (set only by the TCP fast-path decode).
func (r *ReadBlockResp) Pooled() bool { return r.pooled }

// Release returns a pooled Data buffer to the pool and clears the
// struct's claim on it. Only the sole owner may call it, and only once;
// it is a no-op for non-pooled payloads.
func (r *ReadBlockResp) Release() {
	if r.pooled {
		bufpool.Put(r.Data)
		r.Data = nil
		r.pooled = false
	}
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

// decodeIDList is the inverse of appendIDList. The returned slice is a
// fresh allocation: report ID lists are retained past the decode (the
// namenode reconciles against them), so they must not alias scratch.
func decodeIDList(b []byte) ([]BlockID, []byte, error) {
	n, rest, err := frameUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, rest, nil
	}
	if n > uint64(len(rest)) { // each entry needs ≥1 byte
		return nil, nil, errShortFrame
	}
	ids := make([]BlockID, 0, n)
	var prev uint64
	for i := uint64(0); i < n; i++ {
		var d uint64
		d, rest, err = frameUvarint(rest)
		if err != nil {
			return nil, nil, err
		}
		prev += d
		ids = append(ids, BlockID(prev))
	}
	return ids, rest, nil
}

// ---- HeartbeatReq ----

// AppendFrame implements transport.Framer. At 1000 datanodes the
// heartbeat is the highest-rate control-plane message; framing it keeps
// the namenode's receive path off gob reflection.
func (r *HeartbeatReq) AppendFrame(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r.Addr)))
	buf = append(buf, r.Addr...)
	buf = binary.AppendUvarint(buf, uint64(r.PinnedBytes))
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = binary.AppendUvarint(buf, r.Epoch)
	buf = appendIDList(buf, r.Pinned)
	buf = appendIDList(buf, r.Unpinned)
	buf = appendIDList(buf, r.Added)
	buf = appendIDList(buf, r.Removed)
	buf = binary.AppendUvarint(buf, uint64(r.SSDBytes))
	buf = appendIDList(buf, r.SSDPinned)
	return appendIDList(buf, r.SSDUnpinned)
}

// DecodeFrame implements transport.Framer.
func (r *HeartbeatReq) DecodeFrame(payload []byte) error {
	addr, rest, err := frameBytes(payload)
	if err != nil {
		return err
	}
	pinnedBytes, rest, err := frameUvarint(rest)
	if err != nil {
		return err
	}
	seq, rest, err := frameUvarint(rest)
	if err != nil {
		return err
	}
	epoch, rest, err := frameUvarint(rest)
	if err != nil {
		return err
	}
	pinned, rest, err := decodeIDList(rest)
	if err != nil {
		return err
	}
	unpinned, rest, err := decodeIDList(rest)
	if err != nil {
		return err
	}
	added, rest, err := decodeIDList(rest)
	if err != nil {
		return err
	}
	removed, rest, err := decodeIDList(rest)
	if err != nil {
		return err
	}
	ssdBytes, rest, err := frameUvarint(rest)
	if err != nil {
		return err
	}
	ssdPinned, rest, err := decodeIDList(rest)
	if err != nil {
		return err
	}
	ssdUnpinned, rest, err := decodeIDList(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errShortFrame
	}
	// Datanode addresses are a small fixed population; intern instead of
	// copying one out of the frame per heartbeat.
	r.Addr = transport.InternBytes(addr)
	r.PinnedBytes = int64(pinnedBytes)
	r.Seq = seq
	r.Epoch = epoch
	r.Pinned, r.Unpinned = pinned, unpinned
	r.Added, r.Removed = added, removed
	r.SSDBytes = int64(ssdBytes)
	r.SSDPinned, r.SSDUnpinned = ssdPinned, ssdUnpinned
	return nil
}

// ---- BlockReportReq ----

// AppendFrame implements transport.Framer. A full report from a
// million-block datanode is megabytes of IDs; hand framing (with delta
// encoding) keeps both the bytes and the decode allocations bounded.
func (r *BlockReportReq) AppendFrame(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r.Addr)))
	buf = append(buf, r.Addr...)
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = binary.AppendUvarint(buf, r.Epoch)
	return appendIDList(buf, r.Blocks)
}

// DecodeFrame implements transport.Framer.
func (r *BlockReportReq) DecodeFrame(payload []byte) error {
	addr, rest, err := frameBytes(payload)
	if err != nil {
		return err
	}
	seq, rest, err := frameUvarint(rest)
	if err != nil {
		return err
	}
	epoch, rest, err := frameUvarint(rest)
	if err != nil {
		return err
	}
	blocks, rest, err := decodeIDList(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errShortFrame
	}
	r.Addr = transport.InternBytes(addr)
	r.Seq = seq
	r.Epoch = epoch
	r.Blocks = blocks
	return nil
}
