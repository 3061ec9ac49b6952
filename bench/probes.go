package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/blockcache"
	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Probes time one layer's public functions in isolation, during the
// traced run of the workload that layer matters to. They are fixed
// iteration counts, sized to take a few tenths of a second each.

func runProbes(workload string, e *env, rec *WorkloadRecord) error {
	switch workload {
	case wlScanCold:
		if err := probeEcho(rec, true); err != nil {
			return err
		}
		probeReadFrame(rec)
	case wlIngestRescan:
		probeWriteFrame(rec)
		return probeCacheHit(rec)
	case wlMetaMigrate:
		if err := probeEcho(rec, false); err != nil {
			return err
		}
		return probeWAL(rec, e.tmpDir)
	case wlPaperSim:
		if err := probeDevice(rec); err != nil {
			return err
		}
		return probeSimclock(rec)
	}
	return nil
}

// probeEcho times RPC round trips over TCP loopback with no file system
// behind them: a gob-coded control message, and (bulk) a 4 MiB block
// reply on the binary fast path.
func probeEcho(rec *WorkloadRecord, bulk bool) error {
	dfs.RegisterWire()
	clock := simclock.NewReal()
	net := transport.NewTCPNetwork()
	l, err := net.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	block := make([]byte, g.scanBlockSize)
	fillPayload(block, 1)
	srv := transport.NewServer(clock)
	srv.Handle("echo", func(arg any) (any, error) { return arg, nil })
	srv.Handle("block", func(any) (any, error) {
		return dfs.ReadBlockResp{Data: block, Size: int64(len(block))}, nil
	})
	srv.ServeBackground(l)
	defer srv.Close()
	c, err := transport.Dial(clock, net, l.Addr())
	if err != nil {
		return err
	}
	defer c.Close()

	smallCalls := 2000 / g.probeDiv
	t0 := time.Now()
	for i := 0; i < smallCalls; i++ {
		if _, err := transport.Call[dfs.GetLocationsReq](c, "echo", dfs.GetLocationsReq{Path: "/probe/echo"}); err != nil {
			return err
		}
	}
	rec.add("transport.echo_small_us", float64(time.Since(t0))/1e3/float64(smallCalls))
	if !bulk {
		return nil
	}

	bulkCalls := 100 / g.probeDiv
	call := func() error {
		resp, err := transport.Call[dfs.ReadBlockResp](c, "block", dfs.ReadBlockReq{Block: 1})
		if err != nil {
			return err
		}
		if len(resp.Data) != len(block) {
			return fmt.Errorf("echoed %d bytes, want %d", len(resp.Data), len(block))
		}
		resp.Release()
		return nil
	}
	for i := 0; i < 4; i++ { // fill the buffer pool and the conn's scratch
		if err := call(); err != nil {
			return err
		}
	}
	before := procNow()
	t0 = time.Now()
	for i := 0; i < bulkCalls; i++ {
		if err := call(); err != nil {
			return err
		}
	}
	rec.add("transport.echo_4mib_us", float64(time.Since(t0))/1e3/float64(bulkCalls))
	rec.add("transport.allocs_per_bulk_call", float64(procNow().sub(before).mallocs)/float64(bulkCalls))
	return nil
}

func frameIters() int { return 1 + 50/g.probeDiv }

func mibps(bytes int, iters int, d time.Duration) float64 {
	return float64(bytes) * float64(iters) / (1 << 20) / d.Seconds()
}

// probeReadFrame times the 4 MiB ReadBlockResp framer: every cold block
// read encodes one on the datanode and decodes one on the client.
func probeReadFrame(rec *WorkloadRecord) {
	resp := dfs.ReadBlockResp{Data: make([]byte, g.scanBlockSize), Size: int64(g.scanBlockSize)}
	fillPayload(resp.Data, 2)
	iters := frameIters()
	var frame []byte
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		frame = resp.AppendFrame(frame[:0])
	}
	rec.add("dfs.frame_encode_mibps", mibps(g.scanBlockSize, iters, time.Since(t0)))
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		var out dfs.ReadBlockResp
		if err := out.DecodeFrame(frame); err != nil {
			rec.fail(fmt.Errorf("probe: decode ReadBlockResp: %w", err))
			return
		}
		out.Release()
	}
	rec.add("dfs.frame_decode_mibps", mibps(g.scanBlockSize, iters, time.Since(t0)))
}

// probeWriteFrame times the 1 MiB WriteBlockReq framer: every block of
// the write pipeline is encoded and decoded once per hop.
func probeWriteFrame(rec *WorkloadRecord) {
	req := dfs.WriteBlockReq{
		Block:    dfs.Block{ID: 1, Size: int64(g.ingestBlockSize)},
		Data:     make([]byte, g.ingestBlockSize),
		Pipeline: []string{"127.0.0.1:1"},
	}
	fillPayload(req.Data, 3)
	iters := 4 * frameIters()
	var frame []byte
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		frame = req.AppendFrame(frame[:0])
	}
	rec.add("dfs.frame_encode_mibps", mibps(g.ingestBlockSize, iters, time.Since(t0)))
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		var out dfs.WriteBlockReq
		if err := out.DecodeFrame(frame); err != nil {
			rec.fail(fmt.Errorf("probe: decode WriteBlockReq: %w", err))
			return
		}
		out.Release()
	}
	rec.add("dfs.frame_decode_mibps", mibps(g.ingestBlockSize, iters, time.Since(t0)))
}

// probeCacheHit times a block-cache hit on a resident 1 MiB block.
func probeCacheHit(rec *WorkloadRecord) error {
	const blocks = 8
	hits := 200000 / g.probeDiv
	c := blockcache.New(simclock.NewReal(), int64(4*blocks*g.ingestBlockSize))
	payload := make([]byte, g.ingestBlockSize)
	for id := uint64(0); id < blocks; id++ {
		_, _, err := c.GetOrFetch("/probe", id, func() ([]byte, string, error) { return payload, "dn", nil })
		if err != nil {
			return err
		}
	}
	miss := func() ([]byte, string, error) { return nil, "", fmt.Errorf("resident block was refetched") }
	t0 := time.Now()
	for i := 0; i < hits; i++ {
		if _, hit, err := c.GetOrFetch("/probe", uint64(i%blocks), miss); err != nil || !hit {
			return fmt.Errorf("probe: cache hit: hit=%v err=%v", hit, err)
		}
	}
	rec.add("blockcache.hit_us_per_block", float64(time.Since(t0))/1e3/float64(hits))
	return nil
}

// probeWAL times journal appends and replay on the file backend with
// 128-byte records, the size of a small migration plan.
func probeWAL(rec *WorkloadRecord, tmpDir string) error {
	dir, err := os.MkdirTemp(tmpDir, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	be, err := wal.OpenFile(dir, "probe.wal")
	if err != nil {
		return err
	}
	log := wal.New(be)
	defer log.Close()
	records := 20000 / g.probeDiv
	payload := make([]byte, 128)
	fillPayload(payload, 4)
	t0 := time.Now()
	for i := 0; i < records; i++ {
		if err := log.Append(payload); err != nil {
			return err
		}
	}
	rec.add("wal.append_us", float64(time.Since(t0))/1e3/float64(records))
	t0 = time.Now()
	n, err := log.Replay(func([]byte) error { return nil })
	if err != nil {
		return err
	}
	if n != records {
		return fmt.Errorf("probe: replayed %d records, appended %d", n, records)
	}
	rec.add("wal.replay_records_per_s", float64(records)/time.Since(t0).Seconds())
	return nil
}

// probeDevice is the host cost of one modeled device request on the
// virtual clock: what every simulated block read pays the simulator.
func probeDevice(rec *WorkloadRecord) error {
	ops := 20000 / g.probeDiv
	var perOp float64
	var inner error
	err := cluster.RunVirtual(simStallTimeout, func(v *simclock.Virtual) {
		dev, err := storage.NewDevice(v, storage.HDDSpec())
		if err != nil {
			inner = err
			return
		}
		defer dev.Close()
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			if err := dev.Read(1 << 20); err != nil {
				inner = err
				return
			}
		}
		perOp = float64(time.Since(t0)) / float64(ops)
	})
	if err != nil {
		return err
	}
	if inner != nil {
		return inner
	}
	rec.add("storage.device_host_ns_per_op", perOp)
	return nil
}

// probeSimclock is how many timed wake-ups the virtual clock delivers
// per host second with 64 goroutines sleeping in turn.
func probeSimclock(rec *WorkloadRecord) error {
	const sleepers = 64
	sleeps := 1000 / g.probeDiv
	var host time.Duration
	err := cluster.RunVirtual(simStallTimeout, func(v *simclock.Virtual) {
		t0 := time.Now()
		wg := simclock.NewWaitGroup(v)
		for s := 0; s < sleepers; s++ {
			d := time.Duration(s+1) * time.Millisecond
			wg.Go(func() {
				for i := 0; i < sleeps; i++ {
					v.Sleep(d)
				}
			})
		}
		wg.Wait()
		host = time.Since(t0)
	})
	if err != nil {
		return err
	}
	rec.add("simclock.events_per_host_s", float64(sleepers*sleeps)/host.Seconds())
	return nil
}
