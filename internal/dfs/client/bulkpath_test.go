package client_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/dfs/datanode"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Tests of the bulk data path on the real clock: a block's bytes reach
// ReadFile's result straight from the socket over TCP, and through a
// copy that gives its buffer up at once otherwise, so what is checked
// here is who owns which bytes when, and what a read allocates.

// liveCluster is a cluster of RAM-served datanodes on the scaled real
// clock, over TCP loopback or the in-memory network.
type liveCluster struct {
	*cluster.Cluster
	net transport.Network // the clients' view of the network
}

func startLive(tb testing.TB, tcp bool, nodes int) *liveCluster {
	tb.Helper()
	return startLiveVia(tb, tcp, nodes, nil)
}

// startLiveVia is startLive with every component's network seen through
// view (nil: the bare network), keyed by the component's node name; the
// cluster's clients use the view of "client". When the test ends and
// the datanodes are closed, none may still hold a replica slot or keep
// an arena chunk mapped.
func startLiveVia(tb testing.TB, tcp bool, nodes int, view func(clock simclock.Clock, base transport.Network, node string) transport.Network) *liveCluster {
	tb.Helper()
	clock := simclock.NewScaledReal(4)
	var base transport.Network = transport.NewInmemNetwork(clock)
	if tcp {
		base = transport.Loopback{}
	}
	cfg := cluster.Config{Nodes: nodes, Seed: 11, Media: storage.RAMSpec(), Mode: cluster.ModeInputsInRAM}
	lc := &liveCluster{net: base}
	if view != nil {
		cfg.WrapNet = func(node string, base transport.Network) transport.Network { return view(clock, base, node) }
		lc.net = view(clock, base, "client")
	}
	c, err := cluster.StartOn(clock, base, cfg)
	if err != nil {
		tb.Fatalf("cluster start: %v", err)
	}
	lc.Cluster = c
	tb.Cleanup(func() {
		c.Close()
		for _, dn := range c.DataNodes {
			settleReplicaMemory(tb, dn, "nothing held or mapped after Close", func(m storage.Memory) bool {
				return m.Slots == 0 && m.Chunks == 0
			})
		}
	})
	return lc
}

// settleReplicaMemory waits up to a few seconds for dn's replica memory
// to satisfy ok: in-flight work (a serve whose client gave up, a write
// being received) may hold a slot for a moment.
func settleReplicaMemory(tb testing.TB, dn *datanode.DataNode, want string, ok func(storage.Memory) bool) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m := dn.ReplicaMemory(); !ok(m); m = dn.ReplicaMemory() {
		if time.Now().After(deadline) {
			tb.Errorf("%s replica memory %+v, want %s", dn.Addr(), m, want)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (lc *liveCluster) client(tb testing.TB, opts ...client.Option) *client.Client {
	tb.Helper()
	c, err := client.New(lc.Clock, lc.net, lc.NameNode.Addr(), opts...)
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

var eachTransport = client.EachTransport

// The slice ReadFile returns is the caller's alone: scribbling over it
// must reach neither a pooled buffer a later read is handed nor the
// datanode's stored replica.
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

// The slice WriteFile was given is the caller's again once it returns:
// scribbling over it must reach no replica. Every replica is read back
// from its own holder. The blocks are sent from the caller's slice, so
// this holds only because each datanode owns what it stores: the
// pooled buffer its transport received the block into, from the socket
// or by the copy at the in-memory Send.
func TestWriteFileReplicasOwnTheirBytes(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		lc := startLive(t, tcp, 4)
		cl := lc.client(t)
		in := patterned(8*(256<<10)+12345, 5)
		want := bytes.Clone(in)
		if err := cl.WriteFile("/own/w", in, 256<<10, 2); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		for i := range in {
			in[i] = 0xFF
		}
		lbs, err := cl.Locations("/own/w")
		if err != nil || len(lbs) != 9 {
			t.Fatalf("Locations: %d blocks, %v", len(lbs), err)
		}
		for _, lb := range lbs {
			if len(lb.Nodes) != 2 {
				t.Fatalf("block %d has replicas on %v, want 2", lb.Block.ID, lb.Nodes)
			}
			for _, addr := range lb.Nodes {
				pinned := lb
				pinned.Nodes = []string{addr}
				got, err := readData(cl, pinned)
				if err != nil {
					t.Fatalf("block %d on %s: %v", lb.Block.ID, addr, err)
				}
				if !bytes.Equal(got, want[lb.Offset:lb.Offset+lb.Block.Size]) {
					t.Fatalf("block %d on %s changed with the caller's slice", lb.Block.ID, addr)
				}
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

// LocationsInRange over TCP: the range rides the framed request,
// so the namenode answers with just the blocks it covers.
func TestLocationsInRangeOverTCP(t *testing.T) {
	lc := startLive(t, true, 3)
	cl := lc.client(t)
	const bs = 64 << 10
	if err := cl.WriteFile("/rng/f", patterned(4*bs+7, 4), bs, 2); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	whole, err := cl.Locations("/rng/f")
	if err != nil || len(whole) != 5 {
		t.Fatalf("Locations: %d blocks, err %v", len(whole), err)
	}
	one, err := cl.LocationsInRange("/rng/f", "", whole[2].Offset, whole[2].Block.Size)
	if err != nil {
		t.Fatalf("LocationsInRange: %v", err)
	}
	if len(one) != 1 || one[0].Block != whole[2].Block || one[0].Offset != whole[2].Offset {
		t.Fatalf("one-block range = %+v, want block %+v at %d", one, whole[2].Block, whole[2].Offset)
	}
	tail, err := cl.LocationsInRange("/rng/f", "", 3*bs+1, 0)
	if err != nil || len(tail) != 2 || tail[0].Block != whole[3].Block {
		t.Fatalf("open-ended range: %+v, err %v; want blocks 3 and 4", tail, err)
	}
	past, err := cl.LocationsInRange("/rng/f", "", 5*bs, bs)
	if err != nil || len(past) != 0 {
		t.Fatalf("range past EOF: %d blocks, err %v; want none", len(past), err)
	}
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

// TestWriteFileAllocBytesCeiling pins what a whole-file write may
// allocate on the Go heap at replication 2: almost nothing. Each
// datanode receives a block straight into the arena slot it stores it
// in, memory outside the heap, from the socket or by the copy at the
// in-memory Send, and the writer stages nothing. Measured: about 1/60
// of the file over TCP and 1/1000 in memory; when each datanode adopted
// the pooled buffer it received into, the two replicas made it 2x, and
// a staged write about 3x over TCP.
func TestWriteFileAllocBytesCeiling(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		lc := startLive(t, tcp, 4)
		cl := lc.client(t)
		const size = 8 * (4 << 20)
		in := patterned(size, 6)
		_, got := allocsPerOp(5, func() {
			if err := cl.WriteFile("/walloc/f", in, 4<<20, 2); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			if err := cl.Delete("/walloc/f"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		})
		if ceiling := uint64(size) / 32; got > ceiling && !raceEnabled {
			t.Errorf("WriteFile allocated %d bytes per %d-byte file, ceiling %d", got, size, ceiling)
		}
		t.Logf("%d bytes allocated per %d-byte WriteFile (%.2fx)", got, size, float64(got)/size)
	})
}

// TestReplicaArenaReusesSlots pins that replica memory is recycled: a
// thousand write/delete cycles of one block size over TCP map no arena
// chunk after warm-up, since each delete frees the slot the next write
// lands in, and at the end every datanode holds no slot. (In memory the
// same cycle takes ten times as long on the scaled clock; the in-memory
// write lands in slots too, which TestWriteFileAllocBytesCeiling shows.)
func TestReplicaArenaReusesSlots(t *testing.T) {
	const size = 1 << 20
	cycles := 1000
	if raceEnabled {
		cycles = 100 // a thousand take ~50 s under the race detector
	}
	lc := startLive(t, true, 4)
	cl := lc.client(t)
	in := patterned(size, 9)
	cycle := func() {
		if err := cl.WriteFile("/arena/f", in, size, 2); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		if err := cl.Delete("/arena/f"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	chunks := func() (n int) {
		for _, dn := range lc.DataNodes {
			n += dn.ReplicaMemory().Chunks
		}
		return n
	}
	// Warm-up: the placements of the first cycles visit every
	// datanode that will ever hold the block.
	for i := 0; i < 20; i++ {
		cycle()
	}
	warm := chunks()
	for i := 0; i < cycles; i++ {
		cycle()
	}
	if got := chunks(); got != warm {
		t.Errorf("%d write/delete cycles mapped %d more arena chunks after warm-up", cycles, got-warm)
	}
	for _, dn := range lc.DataNodes {
		if m := dn.ReplicaMemory(); m.Slots != 0 || m.Replicas != 0 {
			t.Errorf("%s holds %+v with every file deleted, want no slot", dn.Addr(), m)
		}
	}
	t.Logf("%d chunks mapped across the datanodes after %d cycles", warm, cycles)
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

// ramBlockRead stores one 4 MiB block on RAM-served datanodes over TCP
// and returns an uncached ReadBlock of it. ReadBlock and not ReadFile,
// so what is measured is the wire path and not the result's allocation.
func ramBlockRead(tb testing.TB) func() {
	tb.Helper()
	const size = 4 << 20
	lc := startLive(tb, true, 4)
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

// TestLargeBlockReadAllocDrop pins what the bulk wire path is for: the
// socket fills one pooled buffer per block read and the caller gives it
// back, where a gob decode allocated (and the collector freed) a fresh
// 4 MiB payload every time, about 40 allocations and 8.6 MB per read.
// An uncached 4 MiB block read may make at most 20 allocations and
// allocate at most 256 KiB; a fresh payload alone breaks the second.
// Averaging over 200 reads keeps the buffers a garbage collection makes
// the pool allocate again (one or two per run) well under it.
func TestLargeBlockReadAllocDrop(t *testing.T) {
	const (
		allocCeiling = 20
		byteCeiling  = 256 << 10
	)
	allocs, bytes := allocsPerOp(200, ramBlockRead(t))
	// The race detector's sync.Pool drops a share of Puts on purpose, so
	// under it the pool refills and neither count means anything.
	if allocs > allocCeiling && !raceEnabled {
		t.Errorf("block read made %d allocations, ceiling %d", allocs, allocCeiling)
	}
	if bytes > byteCeiling && !raceEnabled {
		t.Errorf("block read allocated %d bytes, ceiling %d: the payload is not pooled", bytes, byteCeiling)
	}
	t.Logf("per 4 MiB block: %d allocations, %d bytes", allocs, bytes)
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

// BenchmarkWriteFileTCP is the whole-file write the block benchmarks
// miss: a 64 MiB file in 4 MiB blocks, replication 2, pipelined to four
// RAM-served datanodes on TCP loopback. Each op writes the file and
// deletes it, so the replicas do not pile up.
// `make profile` profiles it.
func BenchmarkWriteFileTCP(b *testing.B) {
	lc := startLive(b, true, 4)
	cl := lc.client(b)
	const size = 64 << 20
	in := patterned(size, 9)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.WriteFile("/bench/w", in, 4<<20, 2); err != nil {
			b.Fatalf("WriteFile: %v", err)
		}
		if err := cl.Delete("/bench/w"); err != nil {
			b.Fatalf("Delete: %v", err)
		}
	}
}

// BenchmarkReadBlockTCP is one uncached 4 MiB block per op from a
// RAM-served datanode on TCP loopback: transport, frame codec and buffer
// pool with no striping or assembly on top. `make profile` profiles it.
func BenchmarkReadBlockTCP(b *testing.B) {
	read := ramBlockRead(b)
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
	return s.listen(func(srv *transport.Server) {
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
	})
}

// listen starts an endpoint whose handlers register installs.
func (s *stubReplicas) listen(register func(*transport.Server)) string {
	s.t.Helper()
	l, err := s.tnet.Listen("127.0.0.1:0")
	if err != nil {
		s.t.Fatalf("Listen: %v", err)
	}
	srv := transport.NewServer(s.clock)
	register(srv)
	srv.ServeBackground(l)
	s.t.Cleanup(func() { l.Close(); srv.Close() })
	return l.Addr()
}

func (s *stubReplicas) client(opts ...client.Option) *client.Client {
	return s.clientLocating(nil, opts...)
}

// clientLocating is client with a namenode that locates every file at
// blocks.
func (s *stubReplicas) clientLocating(blocks []dfs.LocatedBlock, opts ...client.Option) *client.Client {
	s.t.Helper()
	nn := s.listen(func(srv *transport.Server) {
		srv.Handle("nn.getLocations", func(any) (any, error) {
			return dfs.GetLocationsResp{Blocks: blocks}, nil
		})
	})
	c, err := client.New(s.clock, s.tnet, nn, opts...)
	if err != nil {
		s.t.Fatalf("client: %v", err)
	}
	s.t.Cleanup(c.Close)
	return c
}

// readData is ReadBlock's payload, copied out of the pooled buffer.
func readData(c *client.Client, lb dfs.LocatedBlock) ([]byte, error) {
	resp, err := c.ReadBlock(lb, "")
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	return append([]byte(nil), resp.Data...), nil
}

// firstThen locates a block so that replica choice is forced: first is
// the Ignem-assigned, already pinned copy, which chooseReplica always
// prefers; the others are tried in order on failover.
func firstThen(id dfs.BlockID, data []byte, sum uint32, first string, others ...string) dfs.LocatedBlock {
	tiers := make([]dfs.Tier, 1+len(others))
	tiers[0] = dfs.TierRAM
	return dfs.LocatedBlock{
		Block:    dfs.Block{ID: id, Size: int64(len(data))},
		Nodes:    append([]string{first}, others...),
		Tiers:    tiers,
		Assigned: first,
		Checksum: sum,
	}
}

// A reply whose payload is not the located size is a failed replica,
// whether or not the located block carries a checksum (checksums=false:
// the namenode recorded none, so the read does not verify): the read
// fails over to a holder that returns the right bytes, and surfaces
// dfs.ErrBlockLength only when every holder disagrees with the namenode.
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
				cl := s.client()
				var sum uint32
				if sums {
					sum = dfs.Checksum(want)
				}
				lb := firstThen(1, want, sum, a, b)
				got, err := readData(cl, lb)
				if tc.wantErr {
					if !errors.Is(err, dfs.ErrBlockLength) {
						t.Fatalf("err = %v, want dfs.ErrBlockLength", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("ReadBlock: %v", err)
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
	cl := s.clientLocating(lbs)

	const reads = 6
	_, perOp := allocsPerOp(reads-1, func() {
		got, err := cl.ReadFile("/f", "")
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
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
		located      bool   // the namenode recorded a checksum
		first        []byte // what the preferred replica serves
		wantVerifies bool   // ReaderVerifies on the requests
		wantAsked    int    // dn.verifyBlock calls per read
		wantCRCFails int    // ChecksumFailures per read
	}{
		{"healthy", true, want, true, 0, 0},
		{"rotten", true, rotten, true, 1, 1},
		{"short", true, want[:size-1], true, 1, 0},
		{"unchecksummed_file", false, want, false, 0, 0},
		// Nobody here can tell, which is why the datanode must: a stub
		// does not, so the rot comes through.
		{"unchecksummed_file_rotten", false, rotten, false, 0, 0},
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
			cl := s.client()
			var sum uint32
			if tc.located {
				sum = dfs.Checksum(want)
			}
			lb := firstThen(3, want, sum, first, second)

			const reads = 3
			for i := 0; i < reads; i++ {
				got, err := readData(cl, lb)
				if err != nil {
					t.Fatalf("ReadBlock: %v", err)
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
