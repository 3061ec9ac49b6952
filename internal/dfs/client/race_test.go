package client_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dfs/client"
)

// TestPooledBuffersUnderConcurrentTraffic hammers the pooled-buffer
// ownership rules on a real-clock cluster, over TCP and in memory:
// striped whole-file reads,
// single-block reads (each response hands its buffer to the caller),
// cache-filling reads (installs copy out of pooled buffers), and a
// write/verify/delete pipeline all run concurrently on one client. Every read is checked byte-for-byte, so a pooled buffer
// returned while still aliased — the failure mode of a double Release
// or a cache retaining transport scratch — shows up as corruption here
// or as a data race under -race.
func TestPooledBuffersUnderConcurrentTraffic(t *testing.T) {
	eachTransport(t, pooledBuffersUnderConcurrentTraffic)
}

func pooledBuffersUnderConcurrentTraffic(t *testing.T, tcp bool) {
	const (
		raceNodes     = 4
		raceBlockSize = 64 << 10
		raceBlocks    = 4
		workers       = 3 // per traffic shape
		iters         = 12
	)
	lc := startLive(t, tcp, raceNodes)

	in := make([]byte, raceBlocks*raceBlockSize)
	for i := range in {
		in[i] = byte(i % 251)
	}
	cl := lc.client(t, client.WithBlockCache(2*int64(len(in))))
	if err := cl.WriteFile("/race/hot", in, raceBlockSize, 2); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	// Striped whole-file readers: cache installs race with pool reuse.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, err := cl.ReadFile("/race/hot", "race")
				if err != nil {
					fail("ReadFile: %v", err)
					return
				}
				if !bytes.Equal(got, in) {
					fail("striped read corrupted (iter %d)", i)
					return
				}
			}
		}()
	}

	// Block-at-a-time readers: each response owns its buffer until the
	// caller releases it.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				blocks, err := cl.Locations("/race/hot")
				if err != nil {
					fail("Locations: %v", err)
					return
				}
				var got []byte
				for _, lb := range blocks {
					resp, err := cl.ReadBlock(lb, "race")
					if err != nil {
						fail("ReadBlock: %v", err)
						return
					}
					got = append(got, resp.Data...)
					resp.Release()
				}
				if !bytes.Equal(got, in) {
					fail("block-at-a-time read corrupted (iter %d)", i)
					return
				}
			}
		}()
	}

	// Write pipeline: fresh files written, verified, and deleted on the
	// same client while the readers run.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := make([]byte, raceBlocks*raceBlockSize)
			for i := range data {
				data[i] = byte((i*7 + w) % 249)
			}
			for i := 0; i < iters/2; i++ {
				path := fmt.Sprintf("/race/scratch-%d-%d", w, i)
				if err := cl.WriteFile(path, data, raceBlockSize, 2); err != nil {
					fail("WriteFile %s: %v", path, err)
					return
				}
				got, err := cl.ReadFile(path, "race")
				if err != nil {
					fail("ReadFile %s: %v", path, err)
					return
				}
				if !bytes.Equal(got, data) {
					fail("write/read of %s corrupted", path)
					return
				}
				if err := cl.Delete(path); err != nil {
					fail("Delete %s: %v", path, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
