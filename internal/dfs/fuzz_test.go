package dfs

import (
	"bytes"
	"testing"
)

// Frame-codec fuzzers: DecodeFrame must never panic on arbitrary bytes
// (the payload arrives straight off the wire), and anything it accepts
// must survive an encode/decode round trip unchanged. Seeds cover the
// interesting shapes — zero-length blocks, a max-size (4 MiB) block,
// corrupted headers, truncated payloads — alongside the committed
// corpus under testdata/fuzz.

const fuzzMaxBlock = 4 << 20

func fuzzBlockBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}

func FuzzWriteBlockReqFrame(f *testing.F) {
	empty := WriteBlockReq{}
	f.Add(empty.AppendFrame(nil))
	full := WriteBlockReq{
		Block:         Block{ID: 42, Size: fuzzMaxBlock},
		Data:          fuzzBlockBytes(fuzzMaxBlock),
		Pipeline:      []string{"dn1:9000", "dn2:9000"},
		EagerPipeline: true,
	}
	enc := full.AppendFrame(nil)
	f.Add(enc)
	f.Add(enc[:len(enc)/2]) // truncated mid-payload
	f.Fuzz(func(t *testing.T, data []byte) {
		var r WriteBlockReq
		if err := r.DecodeFrame(data); err != nil {
			return
		}
		re := r.AppendFrame(nil)
		var r2 WriteBlockReq
		if err := r2.DecodeFrame(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if r2.Block != r.Block || r2.EagerPipeline != r.EagerPipeline ||
			len(r2.Pipeline) != len(r.Pipeline) || !bytes.Equal(r2.Data, r.Data) {
			t.Fatalf("round trip changed request: %+v -> %+v", r.Block, r2.Block)
		}
		for i := range r.Pipeline {
			if r.Pipeline[i] != r2.Pipeline[i] {
				t.Fatalf("pipeline[%d] changed: %q -> %q", i, r.Pipeline[i], r2.Pipeline[i])
			}
		}
		r.Release()
		r2.Release()
	})
}

func FuzzReadBlockReqFrame(f *testing.F) {
	empty := ReadBlockReq{}
	f.Add(empty.AppendFrame(nil))
	full := ReadBlockReq{Block: 7, Job: "job-fuzz", Local: true}
	enc := full.AppendFrame(nil)
	f.Add(enc)
	f.Add(enc[:1])
	verifying := ReadBlockReq{Block: 7, Job: "job-fuzz", ReaderVerifies: true}
	f.Add(verifying.AppendFrame(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r ReadBlockReq
		if err := r.DecodeFrame(data); err != nil {
			return
		}
		re := r.AppendFrame(nil)
		var r2 ReadBlockReq
		if err := r2.DecodeFrame(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if r2 != r {
			t.Fatalf("round trip changed request: %+v -> %+v", r, r2)
		}
	})
}

func FuzzReadBlockRespFrame(f *testing.F) {
	empty := ReadBlockResp{}
	f.Add(empty.AppendFrame(nil))
	full := ReadBlockResp{
		Data:       fuzzBlockBytes(fuzzMaxBlock),
		Size:       fuzzMaxBlock,
		FromMemory: true,
		Local:      true,
	}
	enc := full.AppendFrame(nil)
	f.Add(enc)
	f.Add(enc[:len(enc)-1]) // one byte short of a full block
	f.Fuzz(func(t *testing.T, data []byte) {
		var r ReadBlockResp
		if err := r.DecodeFrame(data); err != nil {
			return
		}
		re := r.AppendFrame(nil)
		var r2 ReadBlockResp
		if err := r2.DecodeFrame(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if r2.Size != r.Size || r2.FromMemory != r.FromMemory ||
			r2.Local != r.Local || !bytes.Equal(r2.Data, r.Data) {
			t.Fatalf("round trip changed response (size %d -> %d)", r.Size, r2.Size)
		}
		r.Release()
		r2.Release()
	})
}
