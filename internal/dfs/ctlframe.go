package dfs

// Control-plane frames: the namenode, datanode and Ignem command messages
// that carry no block payload. Each AppendFrame/DecodeFrame pair
// implements transport.Framer and lists the struct's fields in
// declaration order (see frame.go for the cursor and field encodings).

// ack is the frame of a message with no fields: it is empty. The empty
// acknowledgements embed it to implement transport.Framer.
type ack struct{}

func (ack) AppendFrame(buf []byte) []byte { return buf }

func (ack) DecodeFrame(payload []byte) error {
	if len(payload) != 0 {
		return errShortFrame
	}
	return nil
}

func (m *CreateReq) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).str(m.Path).varint(m.BlockSize).varint(int64(m.Replication))
}

func (m *CreateReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Path, m.BlockSize, m.Replication = r.str(), r.varint(), int(r.varint())
	return r.done()
}

func (m *AddBlocksReq) AppendFrame(buf []byte) []byte {
	w := frameWriter(buf).str(m.Path).uvarint(uint64(len(m.Sizes)))
	for _, s := range m.Sizes {
		w = w.varint(s)
	}
	w = w.uvarint(m.ReqID).uvarint(uint64(len(m.Checksums)))
	for _, s := range m.Checksums {
		w = w.uvarint(uint64(s))
	}
	return w
}

func (m *AddBlocksReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Path, m.Sizes = r.str(), makeList[int64](&r, 1)
	for i := range m.Sizes {
		m.Sizes[i] = r.varint()
	}
	m.ReqID, m.Checksums = r.uvarint(), makeList[uint32](&r, 1)
	for i := range m.Checksums {
		m.Checksums[i] = r.sum()
	}
	return r.done()
}

func (m *AddBlocksResp) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).locatedList(m.Located)
}

func (m *AddBlocksResp) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Located = r.locatedList()
	return r.done()
}

func (m *RetargetBlockReq) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).str(m.Path).uvarint(uint64(m.Block)).strs(m.Exclude)
}

func (m *RetargetBlockReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Path, m.Block, m.Exclude = r.str(), BlockID(r.uvarint()), r.addrs()
	return r.done()
}

func (m *RetargetBlockResp) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).located(m.Located)
}

func (m *RetargetBlockResp) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Located = r.located()
	return r.done()
}

func (m *CompleteReq) AppendFrame(buf []byte) []byte { return frameWriter(buf).str(m.Path) }

func (m *CompleteReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Path = r.str()
	return r.done()
}

func (m *GetInfoReq) AppendFrame(buf []byte) []byte { return frameWriter(buf).str(m.Path) }

func (m *GetInfoReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Path = r.str()
	return r.done()
}

func (m *GetInfoResp) AppendFrame(buf []byte) []byte { return frameWriter(buf).info(m.Info) }

func (m *GetInfoResp) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Info = r.info()
	return r.done()
}

func (m *GetLocationsReq) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).str(m.Path).str(string(m.Job)).varint(m.Offset).varint(m.Length)
}

func (m *GetLocationsReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Path, m.Job, m.Offset, m.Length = r.str(), r.job(), r.varint(), r.varint()
	return r.done()
}

func (m *GetLocationsResp) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).locatedList(m.Blocks)
}

func (m *GetLocationsResp) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Blocks = r.locatedList()
	return r.done()
}

func (m *DeleteReq) AppendFrame(buf []byte) []byte { return frameWriter(buf).str(m.Path) }

func (m *DeleteReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Path = r.str()
	return r.done()
}

func (m *ListReq) AppendFrame(buf []byte) []byte { return frameWriter(buf).str(m.Prefix) }

func (m *ListReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Prefix = r.str()
	return r.done()
}

func (m *ListResp) AppendFrame(buf []byte) []byte {
	w := frameWriter(buf).uvarint(uint64(len(m.Files)))
	for _, fi := range m.Files {
		w = w.info(fi)
	}
	return w
}

func (m *ListResp) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Files = makeList[FileInfo](&r, minInfoSize)
	for i := range m.Files {
		m.Files[i] = r.info()
	}
	return r.done()
}

func (m *MigrateReq) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).str(string(m.Job)).strs(m.Paths).bool(m.Implicit).time(m.SubmitTime)
}

func (m *MigrateReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Job, m.Paths, m.Implicit, m.SubmitTime = r.job(), r.strs(), r.bool(), r.time()
	return r.done()
}

func (m *MigrateResp) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).varint(int64(m.Blocks)).varint(m.Bytes)
}

func (m *MigrateResp) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Blocks, m.Bytes = int(r.varint()), r.varint()
	return r.done()
}

func (m *EvictReq) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).str(string(m.Job)).strs(m.Paths)
}

func (m *EvictReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Job, m.Paths = r.job(), r.strs()
	return r.done()
}

func (m *EvictResp) AppendFrame(buf []byte) []byte { return frameWriter(buf).varint(int64(m.Blocks)) }

func (m *EvictResp) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Blocks = int(r.varint())
	return r.done()
}

func (m *BlockReadReq) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).str(string(m.Job)).ids(m.Blocks)
}

func (m *BlockReadReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Job, m.Blocks = r.job(), r.ids()
	return r.done()
}

// AppendFrame implements transport.Framer. A register from a
// million-block datanode is megabytes of IDs; delta encoding keeps both
// the bytes and the decode allocations bounded.
func (m *RegisterReq) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).str(m.Addr).ids(m.Blocks).uvarint(m.Seq).uvarint(m.Epoch)
}

func (m *RegisterReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Addr, m.Blocks, m.Seq, m.Epoch = r.intern(), r.ids(), r.uvarint(), r.uvarint()
	return r.done()
}

func (m *HeartbeatResp) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).bool(m.NeedFullReport)
}

func (m *HeartbeatResp) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.NeedFullReport = r.bool()
	return r.done()
}

func (m *CorruptReplicaReq) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).str(m.Addr).uvarint(uint64(m.Block))
}

func (m *CorruptReplicaReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Addr, m.Block = r.intern(), BlockID(r.uvarint())
	return r.done()
}

func (m *EpochResp) AppendFrame(buf []byte) []byte { return frameWriter(buf).uvarint(m.Epoch) }

func (m *EpochResp) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Epoch = r.uvarint()
	return r.done()
}

func (m *VerifyBlockReq) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).uvarint(uint64(m.Block))
}

func (m *VerifyBlockReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Block = BlockID(r.uvarint())
	return r.done()
}

func (m *PullBlockReq) AppendFrame(buf []byte) []byte {
	return frameWriter(buf).block(m.Block).str(m.From)
}

func (m *PullBlockReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Block, m.From = r.block(), r.intern()
	return r.done()
}

func (m *DeleteBlocksReq) AppendFrame(buf []byte) []byte { return frameWriter(buf).ids(m.Blocks) }

func (m *DeleteBlocksReq) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Blocks = r.ids()
	return r.done()
}

func (m *MigrateBatch) AppendFrame(buf []byte) []byte {
	w := frameWriter(buf).uvarint(m.Epoch).uvarint(uint64(len(m.Cmds)))
	for _, c := range m.Cmds {
		w = w.block(c.Block).str(string(c.Job)).varint(c.JobInputSize).time(c.SubmitTime).
			bool(c.Implicit).uvarint(uint64(c.Checksum)).varint(int64(c.Tier))
	}
	return w
}

func (m *MigrateBatch) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Epoch, m.Cmds = r.uvarint(), makeList[MigrateCmd](&r, minMigrateCmd)
	for i := range m.Cmds {
		m.Cmds[i] = MigrateCmd{Block: r.block(), Job: r.job(), JobInputSize: r.varint(),
			SubmitTime: r.time(), Implicit: r.bool(), Checksum: r.sum(), Tier: Tier(r.varint())}
	}
	return r.done()
}

func (m *EvictBatch) AppendFrame(buf []byte) []byte {
	w := frameWriter(buf).uvarint(m.Epoch).uvarint(uint64(len(m.Cmds)))
	for _, c := range m.Cmds {
		w = w.uvarint(uint64(c.Block)).str(string(c.Job))
	}
	return w
}

func (m *EvictBatch) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Epoch, m.Cmds = r.uvarint(), makeList[EvictCmd](&r, minBlockJob)
	for i := range m.Cmds {
		m.Cmds[i] = EvictCmd{Block: BlockID(r.uvarint()), Job: r.job()}
	}
	return r.done()
}

func (m *ReadNotifyBatch) AppendFrame(buf []byte) []byte {
	w := frameWriter(buf).uvarint(m.Epoch).uvarint(uint64(len(m.Cmds)))
	for _, c := range m.Cmds {
		w = w.uvarint(uint64(c.Block)).str(string(c.Job))
	}
	return w
}

func (m *ReadNotifyBatch) DecodeFrame(payload []byte) error {
	r := frameReader{b: payload}
	m.Epoch, m.Cmds = r.uvarint(), makeList[ReadNotifyCmd](&r, minBlockJob)
	for i := range m.Cmds {
		m.Cmds[i] = ReadNotifyCmd{Block: BlockID(r.uvarint()), Job: r.job()}
	}
	return r.done()
}
