package dfs

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/transport"
)

// Tests of DataSum: the checksum a payload's body reports is the one the
// transport took as the bytes landed when, and only when, Data is still
// the slice it was taken over; every other body pays a full pass.

// zeroCRCPayload returns prefix followed by the four bytes that bring
// its CRC32C to 0. The CRC register is run backwards through four zero
// bytes from the value that reads out as 0; the suffix is what takes
// prefix's register there. (The top byte of a CRC32C table entry names
// the entry, which makes a step backwards possible.)
func zeroCRCPayload(prefix []byte) []byte {
	var byTop [256]byte
	for i, v := range castagnoli {
		byTop[v>>24] = byte(i)
	}
	reg := ^uint32(0) // the register that reads out as 0
	for range 4 {
		i := byTop[reg>>24]
		reg = (reg^castagnoli[i])<<8 | uint32(i)
	}
	reg ^= ^crc32.Checksum(prefix, castagnoli)
	return binary.LittleEndian.AppendUint32(slices.Clip(prefix), reg)
}

// ZeroCRCPayload is zeroCRCPayload for this package's external tests.
var ZeroCRCPayload = zeroCRCPayload

// A payload whose CRC32C is 0 is checksummed 1, whether its body
// recomputes the sum or the transport took it as the payload landed.
func TestZeroCRCPayloadSumsToOne(t *testing.T) {
	data := zeroCRCPayload(fuzzBlockBytes(1000))
	if crc := crc32.Checksum(data, castagnoli); crc != 0 {
		t.Fatalf("crafted payload has CRC32C %08x, want 0", crc)
	}
	if got := Checksum(data); got != 1 {
		t.Fatalf("Checksum = %d, want 1", got)
	}
	if w, r := (WriteBlockReq{Data: data}).DataSum(), (ReadBlockResp{Data: data}).DataSum(); w != 1 || r != 1 {
		t.Errorf("recomputed DataSum: write %d, read %d; want 1", w, r)
	}
	c := echoClient(t)
	w, err := transport.Call[WriteBlockReq](c, "echo", WriteBlockReq{Block: Block{ID: 1, Size: 1004}, Data: data, Checksum: 1})
	if err != nil {
		t.Fatalf("echo WriteBlockReq: %v", err)
	}
	defer w.Release()
	r, err := transport.Call[ReadBlockResp](c, "echo", ReadBlockResp{Data: data, Size: 1004})
	if err != nil {
		t.Fatalf("echo ReadBlockResp: %v", err)
	}
	defer r.Release()
	if w.sum.sum != 1 || r.sum.sum != 1 || w.DataSum() != 1 || r.DataSum() != 1 {
		t.Errorf("landed sums: write %d (DataSum %d), read %d (DataSum %d); want 1",
			w.sum.sum, w.DataSum(), r.sum.sum, r.DataSum())
	}
}

// A body that was not decoded around a landed payload — one decoded from
// a whole frame, or built by hand — sums Data afresh on every call.
func TestDataSumWithoutLandingIsAFullPass(t *testing.T) {
	frameW := (&WriteBlockReq{Block: Block{ID: 2, Size: 700}, Data: fuzzBlockBytes(700)}).AppendFrame(nil)
	frameR := (&ReadBlockResp{Data: fuzzBlockBytes(700), Size: 700}).AppendFrame(nil)
	var decW WriteBlockReq
	var decR ReadBlockResp
	if err := decW.DecodeFrame(frameW); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if err := decR.DecodeFrame(frameR); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	defer decW.Release()
	defer decR.Release()
	handW := WriteBlockReq{Data: fuzzBlockBytes(700)}
	handR := ReadBlockResp{Data: fuzzBlockBytes(700)}
	for _, tc := range []struct {
		name string
		data []byte
		sum  func() uint32
	}{
		{"decoded WriteBlockReq", decW.Data, decW.DataSum},
		{"decoded ReadBlockResp", decR.Data, decR.DataSum},
		{"hand-built WriteBlockReq", handW.Data, handW.DataSum},
		{"hand-built ReadBlockResp", handR.Data, handR.DataSum},
	} {
		if got, want := tc.sum(), Checksum(tc.data); got != want {
			t.Errorf("%s: DataSum %08x, want %08x", tc.name, got, want)
		}
		tc.data[0] ^= 0xFF // a full pass sees this; a kept sum would not
		if got, want := tc.sum(), Checksum(tc.data); got != want {
			t.Errorf("%s: DataSum after a change of the bytes %08x, want %08x", tc.name, got, want)
		}
	}
}

// A landed sum vouches only for the slice it was taken over: Data
// reassigned to other memory, to a shorter slice of the same memory, or
// to the same memory after Release, is summed afresh. The bulk below
// claims a sum its bytes do not have, so any reuse shows.
func TestReassignedDataDropsTheLandedSum(t *testing.T) {
	const n, claimed = 600, 0xBAD
	var w WriteBlockReq
	var r ReadBlockResp
	type body struct {
		name    string
		decode  func(transport.Bulk) error
		data    func() *[]byte
		sum     func() uint32
		release func()
	}
	for _, b := range []body{
		{"WriteBlockReq", func(bulk transport.Bulk) error { return w.DecodeHead(w.AppendHead(nil), bulk) },
			func() *[]byte { return &w.Data }, func() uint32 { return w.DataSum() }, w.Release},
		{"ReadBlockResp", func(bulk transport.Bulk) error { return r.DecodeHead(r.AppendHead(nil), bulk) },
			func() *[]byte { return &r.Data }, func() uint32 { return r.DataSum() }, r.Release},
	} {
		buf := bufpool.Get(n)
		copy(buf, fuzzBlockBytes(n))
		if err := b.decode(transport.Bulk{Data: buf, Pooled: true, Sum: claimed, Summed: true}); err != nil {
			t.Fatalf("%s: DecodeHead: %v", b.name, err)
		}
		if got := b.sum(); got != claimed {
			t.Fatalf("%s: DataSum %x right after the landing, want the landed %x", b.name, got, claimed)
		}
		data := b.data()
		for _, re := range []struct {
			what string
			data []byte
		}{
			{"a copy", slices.Clone(buf)},
			{"a shorter slice", buf[:n-1]},
		} {
			*data = re.data
			if got, want := b.sum(), Checksum(re.data); got != want {
				t.Errorf("%s: Data reassigned to %s sums %x, want %x", b.name, re.what, got, want)
			}
		}
		*data = buf
		b.release()
		*data = buf // the same memory, as the pool may hand it out again
		if got, want := b.sum(), Checksum(buf); got != want {
			t.Errorf("%s: Data reassigned after Release sums %x, want %x", b.name, got, want)
		}
		*data = nil
	}
}
