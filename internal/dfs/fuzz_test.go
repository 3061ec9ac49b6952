package dfs

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/transport"
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
		Block:    Block{ID: 42, Size: fuzzMaxBlock},
		Data:     fuzzBlockBytes(fuzzMaxBlock),
		Pipeline: []string{"dn1:9000", "dn2:9000"},
	}
	enc := full.AppendFrame(nil)
	f.Add(enc)
	f.Add(enc[:len(enc)/2]) // truncated mid-payload
	summed := WriteBlockReq{Block: Block{ID: 43, Size: 512}, Data: fuzzBlockBytes(512)}
	summed.Checksum = Checksum(summed.Data)
	f.Add(summed.AppendFrame(nil))
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
		if r2.Block != r.Block || r2.Checksum != r.Checksum ||
			len(r2.Pipeline) != len(r.Pipeline) || !bytes.Equal(r2.Data, r.Data) {
			t.Fatalf("round trip changed request: %+v sum %#x -> %+v sum %#x", r.Block, r.Checksum, r2.Block, r2.Checksum)
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

// asFramer returns a pointer to a copy of a wire value, as a Framer.
func asFramer(v any) transport.Framer {
	p := reflect.New(reflect.TypeOf(v))
	p.Elem().Set(reflect.ValueOf(v))
	return p.Interface().(transport.Framer)
}

// FuzzControlFrame covers every registered wire type without a block
// payload (the two bulk messages have fuzzers of their own): the first
// byte selects the type, the rest is its frame. DecodeFrame must never
// panic, and whatever it accepts must re-encode to a frame that decodes
// to an equal value.
func FuzzControlFrame(f *testing.F) {
	var types []reflect.Type
	for _, typ := range wireTypes {
		if _, bulk := reflect.New(typ).Interface().(transport.BulkFramer); !bulk {
			types = append(types, typ)
		}
	}
	samples := wireSamples()
	for i, typ := range types {
		for _, s := range samples {
			if reflect.TypeOf(s) == typ {
				frame := append([]byte{byte(i)}, asFramer(s).AppendFrame(nil)...)
				f.Add(frame)
				f.Add(frame[:len(frame)/2+1])
			}
		}
		// A hostile list count: wherever a count is read, it must be
		// refused before anything is allocated for it.
		f.Add(binary.AppendUvarint([]byte{byte(i), 0}, 1<<40))
		if typ == reflect.TypeFor[RegisterReq]() {
			// The full-inventory report, the largest control frame,
			// also gets an empty report and a one-byte cut.
			empty := RegisterReq{}
			full := RegisterReq{Addr: "dn1:9000", Seq: 3, Epoch: 1, Blocks: []BlockID{1, 5, 9}}
			f.Add(append([]byte{byte(i)}, empty.AppendFrame(nil)...))
			f.Add(append([]byte{byte(i)}, full.AppendFrame(nil)[:1]...))
		}
		if typ == reflect.TypeFor[GetLocationsResp]() {
			// A tier list longer than the node list, and a tier above
			// RAM: both are refused.
			for _, tiers := range [][]Tier{{TierRAM, TierHDD, TierSSD}, {TierHDD, TierRAM + 1}} {
				bad := GetLocationsResp{Blocks: []LocatedBlock{{Block: Block{ID: 1, Size: 2}, Nodes: []string{"a", "b"}, Tiers: tiers}}}
				frame := bad.AppendFrame(nil)
				if err := new(GetLocationsResp).DecodeFrame(frame); err == nil {
					f.Fatalf("tiers %v on two nodes decoded", tiers)
				}
				f.Add(append([]byte{byte(i)}, frame...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		typ := types[int(data[0])%len(types)]
		got := reflect.New(typ).Interface().(transport.Framer)
		if err := got.DecodeFrame(data[1:]); err != nil {
			return
		}
		again := reflect.New(typ).Interface().(transport.Framer)
		if err := again.DecodeFrame(got.AppendFrame(nil)); err != nil {
			t.Fatalf("%v: re-decode failed: %v", typ, err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("%v: round trip changed the value:\n %+v\n %+v", typ, got, again)
		}
	})
}
