package client_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/dfs/client"
	"repro/internal/simclock"
)

// TestWriteSyntheticBoundaries drives WriteSynthetic across block-size
// and window boundaries and checks the resulting block layout. Subtests
// are named for the write window the cases are sized against.
func TestWriteSyntheticBoundaries(t *testing.T) {
	const blockSize = 1024
	cases := []struct {
		name       string
		size       int64
		wantBlocks int
		wantLast   int64 // size of the final block
	}{
		{"zero", 0, 0, 0},
		{"sub_block", 700, 1, 700},
		{"exact_one", blockSize, 1, blockSize},
		{"exact_multiple", 4 * blockSize, 4, blockSize},
		{"sub_block_tail", 2*blockSize + 512, 3, 512},
		{"window_plus_tail", 5*blockSize + 1, 6, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("par%d/%s", client.DefaultWriteParallelism, tc.name), func(t *testing.T) {
			runSim(t, func(v *simclock.Virtual) {
				mc := startMini(t, v, miniConfig{})
				defer mc.Close()
				c := mc.client(t)
				defer c.Close()
				if err := c.WriteSyntheticFile("/f", tc.size, blockSize, 2); err != nil {
					t.Fatal(err)
				}
				info, err := c.Info("/f")
				if err != nil {
					t.Fatal(err)
				}
				if !info.Complete || info.Size != tc.size {
					t.Errorf("info = %+v, want complete with size %d", info, tc.size)
				}
				lbs, err := c.Locations("/f")
				if err != nil {
					t.Fatal(err)
				}
				if len(lbs) != tc.wantBlocks {
					t.Fatalf("got %d blocks, want %d", len(lbs), tc.wantBlocks)
				}
				for i, lb := range lbs {
					want := int64(blockSize)
					if i == len(lbs)-1 {
						want = tc.wantLast
					}
					if lb.Block.Size != want {
						t.Errorf("block %d size %d, want %d", i, lb.Block.Size, want)
					}
				}
			})
		})
	}
}

// TestWriteStickyAsyncError checks that once an in-flight block of the
// pipelined writer fails, the writer dispatches no further block: a
// three-window file written to a dead datanode fails without allocating
// its third window, and the file stays unsealed.
func TestWriteStickyAsyncError(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 1})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()
		mc.DataNodes[0].Close()
		const blocks = 3 * client.DefaultWriteParallelism
		if err := c.WriteFile("/f", make([]byte, blocks*1024), 1024, 1); err == nil {
			t.Fatal("write to a dead datanode succeeded")
		}
		info, err := c.Info("/f")
		if err != nil {
			t.Fatal(err)
		}
		if info.Complete {
			t.Error("file was completed despite failed blocks")
		}
		lbs, err := c.Locations("/f")
		if err != nil {
			t.Fatal(err)
		}
		if len(lbs) > 2*client.DefaultWriteParallelism {
			t.Errorf("%d of %d blocks allocated: dispatch went on after an in-flight failure", len(lbs), blocks)
		}
	})
}

// TestParallelWriteErrorSurfacesLater pins the async error contract of
// the pipelined writer: a block that fails in flight fails WriteFile,
// which then must not seal the file.
func TestParallelWriteErrorSurfacesLater(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 1})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()
		mc.DataNodes[0].Close()
		// One block fits the window, so dispatching it succeeds; the
		// failure surfaces when the window drains.
		if err := c.WriteFile("/f", make([]byte, 1024), 1024, 1); err == nil {
			t.Fatal("in-flight write failure never surfaced")
		}
		// The failed write must not have sealed the file.
		info, err := c.Info("/f")
		if err != nil {
			t.Fatal(err)
		}
		if info.Complete {
			t.Error("file was completed despite failed flush")
		}
	})
}

// TestParallelWriteRoundTrip writes an 8-block file through the
// pipelined writer in one call and reads it back.
func TestParallelWriteRoundTrip(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 6})
		defer mc.Close()
		c := mc.client(t)
		defer c.Close()
		data := make([]byte, 8*4096+123)
		for i := range data {
			data[i] = byte(i * 31)
		}
		if err := c.WriteFile("/f", data, 4096, 2); err != nil {
			t.Fatal(err)
		}
		got, err := c.ReadFile("/f", "j")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("round trip mismatch: got %d bytes, want %d", len(got), len(data))
		}
	})
}

// TestParallelWriteFasterThanSerial checks the pipelined writer beats
// a serial baseline in virtual time: one 8-block file against eight
// one-block files written one after another.
func TestParallelWriteFasterThanSerial(t *testing.T) {
	const blockSize = 1 << 20
	elapsed := func(write func(c *client.Client)) time.Duration {
		var d time.Duration
		runSim(t, func(v *simclock.Virtual) {
			mc := startMini(t, v, miniConfig{nodes: 6})
			defer mc.Close()
			c := mc.client(t)
			defer c.Close()
			start := v.Now()
			write(c)
			d = v.Now().Sub(start)
		})
		return d
	}
	serial := elapsed(func(c *client.Client) {
		for i := 0; i < 8; i++ {
			if err := c.WriteFile(fmt.Sprintf("/f%d", i), make([]byte, blockSize), blockSize, 2); err != nil {
				t.Fatal(err)
			}
		}
	})
	pipelined := elapsed(func(c *client.Client) {
		if err := c.WriteFile("/f", make([]byte, 8*blockSize), blockSize, 2); err != nil {
			t.Fatal(err)
		}
	})
	if pipelined*2 > serial {
		t.Errorf("pipelined write %v not ≥2x faster than serial %v", pipelined, serial)
	}
	t.Logf("virtual time: serial %v, pipelined %v, speedup %.2fx", serial, pipelined, float64(serial)/float64(pipelined))
}
