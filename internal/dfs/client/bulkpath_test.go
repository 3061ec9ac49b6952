package client_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/dfs/datanode"
	"repro/internal/dfs/namenode"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Tests of the bulk data path on the real clock: a block's bytes reach
// ReadFile's result through pooled buffers that are filled by the socket
// and given up as soon as they are copied to their slot, so what is
// checked here is who owns which bytes when, and what a read allocates.

// liveCluster is a namenode plus RAM-served datanodes on the scaled real
// clock, over TCP loopback or the in-memory network.
type liveCluster struct {
	clock  simclock.Clock
	net    transport.Network
	nnAddr string
}

func startLive(tb testing.TB, tcp bool, nodes int, tcpOpts ...transport.TCPOption) *liveCluster {
	tb.Helper()
	lc := &liveCluster{clock: simclock.NewScaledReal(4), nnAddr: "nn"}
	addr := func(i int) string { return fmt.Sprintf("dn%d", i) }
	if tcp {
		dfs.RegisterWire()
		tnet := transport.NewTCPNetwork(tcpOpts...)
		lc.net = tnet
		addr = func(int) string { return ephemeralAddr(tb, tnet) }
		lc.nnAddr = addr(0)
	} else {
		lc.net = transport.NewInmemNetwork(lc.clock)
	}
	nn := namenode.New(lc.clock, lc.net, namenode.Config{Addr: lc.nnAddr, Seed: 11})
	if err := nn.Start(); err != nil {
		tb.Fatalf("namenode start: %v", err)
	}
	tb.Cleanup(nn.Close)
	for i := 0; i < nodes; i++ {
		dn, err := datanode.New(lc.clock, lc.net, datanode.Config{
			Addr: addr(i), NameNodeAddr: lc.nnAddr, Media: storage.RAMSpec(),
			ServeAllFromRAM: true,
		})
		if err != nil {
			tb.Fatalf("datanode new: %v", err)
		}
		if err := dn.Start(); err != nil {
			tb.Fatalf("datanode start: %v", err)
		}
		tb.Cleanup(dn.Close)
	}
	return lc
}

func ephemeralAddr(tb testing.TB, tnet transport.TCPNetwork) string {
	tb.Helper()
	l, err := tnet.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	return l.Addr()
}

func (lc *liveCluster) client(tb testing.TB, opts ...client.Option) *client.Client {
	tb.Helper()
	c, err := client.New(lc.clock, lc.net, lc.nnAddr, opts...)
	if err != nil {
		tb.Fatalf("client: %v", err)
	}
	tb.Cleanup(c.Close)
	return c
}

func patterned(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((i*7 + salt) % 251)
	}
	return b
}

func eachTransport(t *testing.T, fn func(t *testing.T, tcp bool)) {
	t.Run("tcp", func(t *testing.T) { fn(t, true) })
	t.Run("inmem", func(t *testing.T) { fn(t, false) })
}

// The slice ReadFile returns is the caller's alone: scribbling over it
// must reach neither a pooled buffer a later read is handed (TCP) nor
// the datanode's stored replica (the in-memory transport passes bodies
// by reference).
func TestReadFileResultIsNotAliased(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		lc := startLive(t, tcp, 4)
		cl := lc.client(t)
		in := patterned(8*(256<<10)+12345, 1)
		if err := cl.WriteFile("/own/f", in, 256<<10, 2); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		for round := 0; round < 3; round++ {
			got, err := cl.ReadFile("/own/f", "")
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			if !bytes.Equal(got, in) {
				t.Fatalf("round %d: read differs from what was written", round)
			}
			for i := range got {
				got[i] = 0xFF
			}
		}
	})
}

// Four goroutines read whole files through one client while the buffers
// they give up are handed to each other's fetches; run under -race.
func TestReadFileConcurrentOnOneClient(t *testing.T) {
	lc := startLive(t, true, 4)
	cl := lc.client(t)
	files := make([][]byte, 2)
	for i := range files {
		files[i] = patterned(8*(128<<10), i+2)
		if err := cl.WriteFile(fmt.Sprintf("/conc/%d", i), files[i], 128<<10, 2); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				f := (g + i) % len(files)
				got, err := cl.ReadFile(fmt.Sprintf("/conc/%d", f), "")
				if err != nil {
					t.Errorf("ReadFile: %v", err)
					return
				}
				if !bytes.Equal(got, files[f]) {
					t.Errorf("goroutine %d read %d: bytes differ", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// allocsPerOp runs op once to warm up, then n times, and returns the
// heap allocations and the heap bytes the whole process made per run.
func allocsPerOp(n int, op func()) (allocs, bytes uint64) {
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(n), (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestReadFileAllocBytesCeiling pins what a whole-file read may
// allocate: the result, once, plus whatever pooled buffers a garbage
// collection made the pool allocate again. Growing the result by append
// and holding every block's buffer to the end cost about five times the
// file size.
func TestReadFileAllocBytesCeiling(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		lc := startLive(t, tcp, 4)
		cl := lc.client(t)
		const size = 8 * (4 << 20)
		if err := cl.WriteFile("/alloc/f", patterned(size, 3), 4<<20, 2); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		_, got := allocsPerOp(5, func() {
			b, err := cl.ReadFile("/alloc/f", "")
			if err != nil || len(b) != size {
				t.Fatalf("ReadFile: %d bytes, %v", len(b), err)
			}
		})
		if ceiling := uint64(size) * 3 / 2; got > ceiling && !raceEnabled {
			t.Errorf("ReadFile allocated %d bytes per %d-byte file, ceiling %d", got, size, ceiling)
		}
		t.Logf("%d bytes allocated per %d-byte ReadFile (%.2fx)", got, size, float64(got)/size)
	})
}

// TestCachedReadAllocCeiling pins what a whole-file scan served from the
// client block cache may allocate: the located-block reply and the
// result, about 70 allocations for an 8-block file. The ceiling leaves
// 3x headroom, so it trips when something allocates per block again and
// not on a heartbeat that lands inside the measured window.
func TestCachedReadAllocCeiling(t *testing.T) {
	const (
		blocks  = 8
		size    = blocks * (1 << 20)
		ceiling = 256
	)
	lc := startLive(t, false, 4)
	cl := lc.client(t, client.WithBlockCache(2*size))
	if err := cl.WriteFile("/cached/f", patterned(size, 7), 1<<20, 2); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	allocs, _ := allocsPerOp(20, func() { // the warm-up run fills the cache
		b, err := cl.ReadFile("/cached/f", "")
		if err != nil || len(b) != size {
			t.Fatalf("ReadFile: %d bytes, %v", len(b), err)
		}
	})
	if allocs > ceiling {
		t.Errorf("cached scan made %d allocations, ceiling %d", allocs, ceiling)
	}
	t.Logf("%d allocations per cached scan of %d blocks (ceiling %d)", allocs, blocks, ceiling)
}

// ramBlockRead stores one 4 MiB block on RAM-served datanodes over TCP,
// with the binary fast path on or off (off is the gob codec), and
// returns an uncached ReadBlock of it. ReadBlock and not ReadFile, so
// what is measured is the wire path and not the result's allocation,
// which costs both codecs the same.
func ramBlockRead(tb testing.TB, fast bool) func() {
	tb.Helper()
	const size = 4 << 20
	lc := startLive(tb, true, 4, transport.WithTCPFastPath(fast))
	cl := lc.client(tb)
	if err := cl.WriteFile("/blk/f", patterned(size, 8), size, 2); err != nil {
		tb.Fatalf("WriteFile: %v", err)
	}
	lbs, err := cl.Locations("/blk/f")
	if err != nil || len(lbs) != 1 {
		tb.Fatalf("Locations: %d blocks, %v", len(lbs), err)
	}
	return func() {
		resp, err := cl.ReadBlock(lbs[0], "")
		if err != nil || len(resp.Data) != size {
			tb.Fatalf("ReadBlock: %d bytes, %v", len(resp.Data), err)
		}
		resp.Release()
	}
}

// TestLargeBlockReadAllocDrop pins what the fast path is for: gob
// allocates, and the collector frees, a fresh 4 MiB payload for every
// block read, while the fast path fills one pooled buffer and gives it
// back. The fast path may make at most half the allocations, and
// allocate at most half the bytes, of the gob path.
func TestLargeBlockReadAllocDrop(t *testing.T) {
	gobAllocs, gobBytes := allocsPerOp(50, ramBlockRead(t, false))
	fastAllocs, fastBytes := allocsPerOp(50, ramBlockRead(t, true))
	if fastAllocs*2 > gobAllocs {
		t.Errorf("fast path made %d allocations per block, gob %d: not half", fastAllocs, gobAllocs)
	}
	if fastBytes*2 > gobBytes {
		t.Errorf("fast path allocated %d bytes per block, gob %d: not half", fastBytes, gobBytes)
	}
	t.Logf("per 4 MiB block: gob %d allocations %d bytes, fast path %d allocations %d bytes",
		gobAllocs, gobBytes, fastAllocs, fastBytes)
}

// BenchmarkReadFileTCP is the whole-file read the block benchmarks miss:
// a 64 MiB file in 4 MiB blocks, replication 2, striped over four
// RAM-served datanodes on TCP loopback. `make profile` profiles it.
func BenchmarkReadFileTCP(b *testing.B) {
	lc := startLive(b, true, 4)
	cl := lc.client(b)
	const size = 64 << 20
	if err := cl.WriteFile("/bench/f", patterned(size, 4), 4<<20, 2); err != nil {
		b.Fatalf("WriteFile: %v", err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := cl.ReadFile("/bench/f", "")
		if err != nil || len(got) != size {
			b.Fatalf("ReadFile: %d bytes, %v", len(got), err)
		}
	}
}

// BenchmarkReadBlockTCP is one uncached 4 MiB block per op from a
// RAM-served datanode on TCP loopback: transport, frame codec and buffer
// pool with no striping or assembly on top. `make profile` profiles it.
func BenchmarkReadBlockTCP(b *testing.B) {
	read := ramBlockRead(b, true)
	b.SetBytes(4 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}

// stubReplicas stands in for a namenode and datanodes over TCP: an empty
// endpoint for the client to dial, and one dn.readBlock server per
// replica behaviour, so a test decides exactly what each holder returns.
type stubReplicas struct {
	t     *testing.T
	clock simclock.Clock
	tnet  transport.TCPNetwork
}

func newStubReplicas(t *testing.T) *stubReplicas {
	dfs.RegisterWire()
	return &stubReplicas{t: t, clock: simclock.NewReal(), tnet: transport.NewTCPNetwork()}
}

// serve starts an endpoint; a nil readBlock leaves it without handlers.
// It answers dn.verifyBlock with "unknown method", as a datanode older
// than that RPC does.
func (s *stubReplicas) serve(readBlock func(dfs.ReadBlockReq) (dfs.ReadBlockResp, error)) string {
	return s.serveVerifying(readBlock, nil)
}

// serveVerifying is serve with a dn.verifyBlock handler (nil: none).
func (s *stubReplicas) serveVerifying(readBlock func(dfs.ReadBlockReq) (dfs.ReadBlockResp, error), verifyBlock func(dfs.VerifyBlockReq)) string {
	s.t.Helper()
	l, err := s.tnet.Listen("127.0.0.1:0")
	if err != nil {
		s.t.Fatalf("Listen: %v", err)
	}
	srv := transport.NewServer(s.clock)
	if readBlock != nil {
		srv.Handle("dn.readBlock", func(arg any) (any, error) {
			return readBlock(arg.(dfs.ReadBlockReq))
		})
	}
	if verifyBlock != nil {
		srv.Handle("dn.verifyBlock", func(arg any) (any, error) {
			verifyBlock(arg.(dfs.VerifyBlockReq))
			return dfs.VerifyBlockResp{}, nil
		})
	}
	srv.ServeBackground(l)
	s.t.Cleanup(func() { l.Close(); srv.Close() })
	return l.Addr()
}

func (s *stubReplicas) client(opts ...client.Option) *client.Client {
	s.t.Helper()
	c, err := client.New(s.clock, s.tnet, s.serve(nil), opts...)
	if err != nil {
		s.t.Fatalf("client: %v", err)
	}
	s.t.Cleanup(c.Close)
	return c
}

// firstThen locates a block so that replica choice is forced: first is
// the Ignem-assigned, already pinned copy, which chooseReplica always
// prefers; the others are tried in order on failover.
func firstThen(id dfs.BlockID, data []byte, sum uint32, first string, others ...string) dfs.LocatedBlock {
	return dfs.LocatedBlock{
		Block:    dfs.Block{ID: id, Size: int64(len(data))},
		Nodes:    append([]string{first}, others...),
		Assigned: first,
		Migrated: []string{first},
		Checksum: sum,
	}
}

// A reply whose payload is not the located size is a failed replica,
// with checksums on or off: the read fails over to a holder that
// returns the right bytes, and surfaces dfs.ErrBlockLength only when
// every holder disagrees with the namenode.
func TestReadBlockPayloadLengthIsReplicaHealth(t *testing.T) {
	const size = 64 << 10
	want := patterned(size, 5)
	payload := func(n int) func(dfs.ReadBlockReq) (dfs.ReadBlockResp, error) {
		return func(dfs.ReadBlockReq) (dfs.ReadBlockResp, error) {
			d := patterned(n, 5)
			return dfs.ReadBlockResp{Data: d, Size: int64(n)}, nil
		}
	}
	for _, tc := range []struct {
		name       string
		first      int // bytes the preferred replica returns
		second     int // bytes the other replica returns
		wantErr    bool
		wantSecond bool // the read had to fail over
	}{
		{"exact", size, size, false, false},
		{"short", size - 1, size, false, true},
		{"half", size / 2, size, false, true},
		{"long", size + 1, size, false, true},
		{"all_short", size - 1, size - 1, true, true},
		{"all_long", size + 512, size + 1, true, true},
	} {
		for _, sums := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/checksums=%v", tc.name, sums), func(t *testing.T) {
				s := newStubReplicas(t)
				var secondCalls int
				var mu sync.Mutex
				a := s.serve(payload(tc.first))
				b := s.serve(func(r dfs.ReadBlockReq) (dfs.ReadBlockResp, error) {
					mu.Lock()
					secondCalls++
					mu.Unlock()
					return payload(tc.second)(r)
				})
				cl := s.client(client.WithChecksums(sums))
				var sum uint32
				if sums {
					sum = dfs.Checksum(want)
				}
				lb := firstThen(1, want, sum, a, b)
				got, err := cl.ReadBlocks([]dfs.LocatedBlock{lb}, "")
				if tc.wantErr {
					if !errors.Is(err, dfs.ErrBlockLength) {
						t.Fatalf("err = %v, want dfs.ErrBlockLength", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("ReadBlocks: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("read bytes differ from the block")
				}
				mu.Lock()
				defer mu.Unlock()
				if (secondCalls > 0) != tc.wantSecond {
					t.Errorf("second replica served %d reads, want failover = %v", secondCalls, tc.wantSecond)
				}
			})
		}
	}
}

// A striped read whose blocks fail in the middle — one holder answers
// with an error, another with bytes that fail the end-to-end CRC — still
// assembles the exact file, and gives back every buffer it took: were
// the rejected payloads or the placed ones kept, each read would
// allocate them afresh, and a buffer given back twice would corrupt a
// later read.
func TestReadBlocksMidStripeFailover(t *testing.T) {
	const (
		blocks    = 8
		blockSize = 1 << 20
	)
	file := patterned(blocks*blockSize, 6)
	block := func(id dfs.BlockID) []byte { return file[int(id)*blockSize : int(id+1)*blockSize] }
	good := func(r dfs.ReadBlockReq) (dfs.ReadBlockResp, error) {
		return dfs.ReadBlockResp{Data: block(r.Block), Size: blockSize}, nil
	}
	s := newStubReplicas(t)
	healthy := s.serve(good)
	erroring := func() string {
		return s.serve(func(r dfs.ReadBlockReq) (dfs.ReadBlockResp, error) {
			return dfs.ReadBlockResp{}, fmt.Errorf("stub: no block %d here", r.Block)
		})
	}
	corrupting := func(id dfs.BlockID) string {
		bad := append([]byte(nil), block(id)...)
		bad[len(bad)/2] ^= 0x40
		return s.serve(func(dfs.ReadBlockReq) (dfs.ReadBlockResp, error) {
			return dfs.ReadBlockResp{Data: bad, Size: blockSize}, nil
		})
	}
	cl := s.client(client.WithReadParallelism(4))

	// Every bad holder is an endpoint of its own: a failed replica's
	// connection is dropped, which would fail a neighbour's fetch in
	// flight on it and make the failure counts a matter of timing.
	const corrupt = 5
	lbs := make([]dfs.LocatedBlock, blocks)
	for i := range lbs {
		id := dfs.BlockID(i)
		first := healthy
		switch i {
		case 0, 5: // arrive good at once
		case 2:
			first = erroring()
		default:
			first = corrupting(id)
		}
		lbs[i] = firstThen(id, block(id), dfs.Checksum(block(id)), first, healthy)
	}

	const reads = 6
	_, perOp := allocsPerOp(reads-1, func() {
		got, err := cl.ReadBlocks(lbs, "")
		if err != nil {
			t.Fatalf("ReadBlocks: %v", err)
		}
		if !bytes.Equal(got, file) {
			t.Fatal("assembled bytes differ from the file")
		}
	})
	if got, want := cl.ChecksumFailures(), int64(reads*corrupt); got != want {
		t.Errorf("ChecksumFailures = %d, want %d (one per corrupt first replica per read)", got, want)
	}
	// 13 pooled buffers are taken per read. Keeping the 5 rejected ones
	// would add 5 MiB to the 8 MiB result, keeping the placed ones 8.
	if ceiling := uint64(len(file)) * 3 / 2; perOp > ceiling && !raceEnabled {
		t.Errorf("read with failover allocated %d bytes per %d-byte file, ceiling %d: buffers are not being recycled", perOp, len(file), ceiling)
	}
	t.Logf("%d bytes allocated per %d-byte read with failover", perOp, len(file))
}

// One party verifies each read, and the request says which: a client that
// will hold the bytes to the located checksum sets ReaderVerifies, any
// other leaves it clear. When its check fails — wrong bytes or wrong
// length — it asks the holder that served them to judge its stored copy,
// once per failed replica and on the connection the bytes came over (a
// forgotten connection is closed, and the stub would never see the call),
// then fails over as before.
func TestReaderVerifiesAndAsksSecondOpinion(t *testing.T) {
	const size = 64 << 10
	want := patterned(size, 7)
	rotten := append([]byte(nil), want...)
	rotten[size/3] ^= 0x01
	for _, tc := range []struct {
		name         string
		checksums    bool   // client option
		located      bool   // the namenode recorded a checksum
		first        []byte // what the preferred replica serves
		wantVerifies bool   // ReaderVerifies on the requests
		wantAsked    int    // dn.verifyBlock calls per read
		wantCRCFails int    // ChecksumFailures per read
	}{
		{"healthy", true, true, want, true, 0, 0},
		{"rotten", true, true, rotten, true, 1, 1},
		{"short", true, true, want[:size-1], true, 1, 0},
		{"checksums_off", false, true, want, false, 0, 0},
		{"unchecksummed_file", true, false, want, false, 0, 0},
		// Nobody here can tell, which is why the datanode must: a stub
		// does not, so the rot comes through.
		{"checksums_off_rotten", false, true, rotten, false, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStubReplicas(t)
			var mu sync.Mutex
			var flags []bool
			var asked []dfs.BlockID
			serving := func(data []byte) func(dfs.ReadBlockReq) (dfs.ReadBlockResp, error) {
				return func(r dfs.ReadBlockReq) (dfs.ReadBlockResp, error) {
					mu.Lock()
					flags = append(flags, r.ReaderVerifies)
					mu.Unlock()
					return dfs.ReadBlockResp{Data: data, Size: int64(len(data))}, nil
				}
			}
			first := s.serveVerifying(serving(tc.first), func(r dfs.VerifyBlockReq) {
				mu.Lock()
				asked = append(asked, r.Block)
				mu.Unlock()
			})
			second := s.serve(serving(want))
			cl := s.client(client.WithChecksums(tc.checksums))
			var sum uint32
			if tc.located {
				sum = dfs.Checksum(want)
			}
			lb := firstThen(3, want, sum, first, second)

			const reads = 3
			for i := 0; i < reads; i++ {
				got, err := cl.ReadBlocks([]dfs.LocatedBlock{lb}, "")
				if err != nil {
					t.Fatalf("ReadBlocks: %v", err)
				}
				expect := tc.first
				if tc.wantAsked > 0 {
					expect = want // rejected, then read from the second replica
				}
				if !bytes.Equal(got, expect) {
					t.Fatal("read returned the wrong replica's bytes")
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for _, f := range flags {
				if f != tc.wantVerifies {
					t.Fatalf("ReaderVerifies = %v on a request, want %v", f, tc.wantVerifies)
				}
			}
			if len(asked) != reads*tc.wantAsked {
				t.Errorf("dn.verifyBlock asked %d times over %d reads, want %d", len(asked), reads, reads*tc.wantAsked)
			}
			for _, id := range asked {
				if id != lb.Block.ID {
					t.Errorf("dn.verifyBlock asked about block %d, want %d", id, lb.Block.ID)
				}
			}
			if got, want := cl.ChecksumFailures(), int64(reads*tc.wantCRCFails); got != want {
				t.Errorf("ChecksumFailures = %d, want %d", got, want)
			}
		})
	}
}
