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
				defer mc.close()
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

// TestWriterMixingErrors checks that real and synthetic writes cannot be
// mixed on one file in either order, including when a real write landed
// on an exact block boundary so the buffer happens to be empty. Subtests
// are named for the write window, as in TestWriteSyntheticBoundaries.
func TestWriterMixingErrors(t *testing.T) {
	const blockSize = 1024
	cases := []struct {
		name  string
		first func(w *client.Writer) error
		then  func(w *client.Writer) error
	}{
		{
			"real_then_synthetic",
			func(w *client.Writer) error { _, err := w.Write([]byte("real bytes")); return err },
			func(w *client.Writer) error { return w.WriteSynthetic(4 * blockSize) },
		},
		{
			"exact_block_real_then_synthetic",
			func(w *client.Writer) error { _, err := w.Write(make([]byte, blockSize)); return err },
			func(w *client.Writer) error { return w.WriteSynthetic(blockSize) },
		},
		{
			"synthetic_then_real",
			func(w *client.Writer) error { return w.WriteSynthetic(blockSize) },
			func(w *client.Writer) error { _, err := w.Write([]byte("x")); return err },
		},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("par%d/%s", client.DefaultWriteParallelism, tc.name), func(t *testing.T) {
			runSim(t, func(v *simclock.Virtual) {
				mc := startMini(t, v, miniConfig{})
				defer mc.close()
				c := mc.client(t)
				defer c.Close()
				w, err := c.Create("/f", blockSize, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.first(w); err != nil {
					t.Fatalf("first write: %v", err)
				}
				if err := tc.then(w); err == nil {
					t.Error("mixed real+synthetic write accepted")
				}
				if err := w.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
			})
		})
	}
}

// TestWriteReturnsConsumedCount pins the Write count contract: Write
// consumes all of p into the buffer or the in-flight window, so it
// reports len(p) even when a flush fails (a retrying caller doesn't
// duplicate data), and a failed block ship surfaces by Close at the
// latest.
func TestWriteReturnsConsumedCount(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 1})
		defer mc.close()
		c := mc.client(t)
		defer c.Close()
		w, err := c.Create("/f", 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Kill the only datanode: allocation still succeeds, shipping fails.
		mc.dns[0].Close()
		p := make([]byte, 3000)
		n, werr := w.Write(p)
		if n != len(p) {
			t.Errorf("consumed count = %d, want %d (err %v)", n, len(p), werr)
		}
		if cerr := w.Close(); werr == nil && cerr == nil {
			t.Fatal("write to dead datanode never surfaced an error")
		}
	})
}

// TestWriteStickyAsyncError checks that once an in-flight block of the
// pipelined writer fails, a later Write consumes nothing and reports the
// sticky error.
func TestWriteStickyAsyncError(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 1})
		defer mc.close()
		c := mc.client(t)
		defer c.Close()
		w, err := c.Create("/f", 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		mc.dns[0].Close()
		if _, err := w.Write(make([]byte, 1024)); err != nil {
			// Surfacing immediately is also within contract.
			return
		}
		// Let the in-flight send fail in virtual time.
		v.Sleep(time.Second)
		n, err := w.Write([]byte("more"))
		if err == nil || n != 0 {
			t.Errorf("write after in-flight failure = (%d, %v), want (0, error)", n, err)
		}
		if err := w.Close(); err == nil {
			t.Error("close after in-flight failure reported success")
		}
	})
}

// TestParallelWriteErrorSurfacesLater pins the async error contract of
// the pipelined writer: a Write that merely hands blocks to the window
// can succeed, and the in-flight failure surfaces on a later call; Close
// must not seal the file after a failed flush.
func TestParallelWriteErrorSurfacesLater(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 1})
		defer mc.close()
		c := mc.client(t)
		defer c.Close()
		w, err := c.Create("/f", 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		mc.dns[0].Close()
		// One block fits the window, so this Write may return nil; the
		// failure must then surface on Close at the latest.
		_, werr := w.Write(make([]byte, 1024))
		cerr := w.Close()
		if werr == nil && cerr == nil {
			t.Fatal("in-flight write failure never surfaced")
		}
		if err := w.Close(); err != nil {
			t.Errorf("second close: %v", err)
		}
		// The failed close must not have sealed the file.
		info, err := c.Info("/f")
		if err != nil {
			t.Fatal(err)
		}
		if info.Complete {
			t.Error("file was completed despite failed flush")
		}
		// The writer stays closed: no retried flush can sneak in.
		if _, err := w.Write([]byte("x")); err == nil {
			t.Error("write after failed close accepted")
		}
	})
}

// TestParallelWriteRoundTrip writes an 8-block file through the
// pipelined writer in one call and reads it back.
func TestParallelWriteRoundTrip(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		mc := startMini(t, v, miniConfig{nodes: 6})
		defer mc.close()
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
			defer mc.close()
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
