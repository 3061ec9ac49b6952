package client_test

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/dfs/client"
)

// TestPooledBuffersUnderConcurrentTraffic hammers the pooled-buffer
// ownership rules on a real TCP cluster: striped whole-file reads,
// streaming reads with read-ahead (the Reader window holds pooled
// entries), cache-filling reads (installs copy out of pooled buffers),
// and a write/verify/delete pipeline all run concurrently on one
// client. Every read is checked byte-for-byte, so a pooled buffer
// returned while still aliased — the failure mode of a double Release
// or a cache retaining transport scratch — shows up as corruption here
// or as a data race under -race.
func TestPooledBuffersUnderConcurrentTraffic(t *testing.T) {
	const (
		raceNodes     = 4
		raceBlockSize = 64 << 10
		raceBlocks    = 4
		workers       = 3 // per traffic shape
		iters         = 12
	)
	lc := startLive(t, true, raceNodes)

	in := make([]byte, raceBlocks*raceBlockSize)
	for i := range in {
		in[i] = byte(i % 251)
	}
	cl := lc.client(t,
		client.WithReadParallelism(4),
		client.WithReadAhead(client.DefaultReadAhead),
		client.WithWriteParallelism(client.DefaultWriteParallelism),
		client.WithBlockCache(2*int64(len(in))))
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

	// Streaming readers: the read-ahead window owns pooled entries until
	// the stream consumes or discards them.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, raceBlockSize)
			for i := 0; i < iters; i++ {
				r, err := cl.Open("/race/hot", "race")
				if err != nil {
					fail("Open: %v", err)
					return
				}
				var got []byte
				for {
					n, err := r.Read(buf)
					got = append(got, buf[:n]...)
					if err == io.EOF {
						break
					}
					if err != nil {
						fail("Reader.Read: %v", err)
						return
					}
				}
				if !bytes.Equal(got, in) {
					fail("streamed read corrupted (iter %d)", i)
					return
				}
			}
		}()
	}

	// Writer pipeline: fresh files written, verified, and deleted on the
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
