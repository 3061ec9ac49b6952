package mapreduce_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/simclock"
)

func runSim(t *testing.T, fn func(v *simclock.Virtual)) {
	t.Helper()
	if err := cluster.RunVirtual(120*time.Second, fn); err != nil {
		t.Fatal(err)
	}
}

func startCluster(t *testing.T, v *simclock.Virtual, mode cluster.Mode) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Start(v, cluster.Config{
		Nodes: 4,
		Mode:  mode,
		Seed:  11,
	})
	if err != nil {
		t.Fatalf("cluster start: %v", err)
	}
	return c
}

func writeInput(t *testing.T, c *cluster.Cluster, path string, size int64) {
	t.Helper()
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WriteSyntheticFile(path, size, 0, 3); err != nil {
		t.Fatalf("write input: %v", err)
	}
}

func TestModeledJobCompletes(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		c := startCluster(t, v, cluster.ModeHDFS)
		defer c.Close()
		writeInput(t, c, "/in", 4*dfs.DefaultBlockSize)

		res, err := c.Engine.Run(mapreduce.Config{
			ID:           "job1",
			InputPaths:   []string{"/in"},
			ShuffleBytes: 32 << 20,
			OutputBytes:  16 << 20,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.InputBytes != 4*dfs.DefaultBlockSize {
			t.Errorf("InputBytes = %d", res.InputBytes)
		}
		if len(res.MapResults) != 4 {
			t.Errorf("map tasks = %d, want 4", len(res.MapResults))
		}
		if len(res.BlockReads) != 4 {
			t.Errorf("instrumented block reads = %d, want 4", len(res.BlockReads))
		}
		if res.Duration <= 0 {
			t.Error("non-positive duration")
		}
		// Output parts exist.
		cl, _ := c.Client()
		defer cl.Close()
		files, err := cl.List("/out/job1/")
		if err != nil || len(files) == 0 {
			t.Errorf("no output files: %v", err)
		}
	})
}

func TestIgnemJobFasterThanHDFS(t *testing.T) {
	var hdfsDur, ignemDur time.Duration
	var migrated int
	run := func(mode cluster.Mode) (time.Duration, int) {
		var dur time.Duration
		var mig int
		runSim(t, func(v *simclock.Virtual) {
			c := startCluster(t, v, mode)
			defer c.Close()
			writeInput(t, c, "/in", 6*dfs.DefaultBlockSize)
			// Background load: other tasks keep the disks busy so reads
			// contend (the regime where migration pays off).
			res, err := c.Engine.Run(mapreduce.Config{
				ID:         "job",
				InputPaths: []string{"/in"},
				UseIgnem:   c.UseIgnem(),
				// Lead-time for migration before the job's tasks start.
				ExtraLeadTime: 10 * time.Second,
			})
			if err != nil {
				t.Errorf("Run: %v", err)
				return
			}
			dur = res.Duration
			mig = res.MigratedBlocks
		})
		return dur, mig
	}
	hdfsDur, _ = run(cluster.ModeHDFS)
	ignemDur, migrated = run(cluster.ModeIgnem)
	if migrated == 0 {
		t.Error("Ignem migrated no blocks despite lead-time")
	}
	if ignemDur >= hdfsDur {
		t.Errorf("Ignem job (%v) not faster than HDFS job (%v)", ignemDur, hdfsDur)
	}
}

func TestInputsInRAMIsUpperBound(t *testing.T) {
	durations := map[cluster.Mode]time.Duration{}
	for _, mode := range []cluster.Mode{cluster.ModeHDFS, cluster.ModeInputsInRAM} {
		mode := mode
		runSim(t, func(v *simclock.Virtual) {
			c := startCluster(t, v, mode)
			defer c.Close()
			writeInput(t, c, "/in", 8*dfs.DefaultBlockSize)
			res, err := c.Engine.Run(mapreduce.Config{ID: "job", InputPaths: []string{"/in"}})
			if err != nil {
				t.Errorf("Run: %v", err)
				return
			}
			durations[mode] = res.Duration
		})
	}
	if durations[cluster.ModeInputsInRAM] >= durations[cluster.ModeHDFS] {
		t.Errorf("RAM config (%v) not faster than HDFS (%v)",
			durations[cluster.ModeInputsInRAM], durations[cluster.ModeHDFS])
	}
}

func TestEvictionAfterJobCompletes(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		c := startCluster(t, v, cluster.ModeIgnem)
		defer c.Close()
		writeInput(t, c, "/in", 2*dfs.DefaultBlockSize)
		if _, err := c.Engine.Run(mapreduce.Config{
			ID: "job", InputPaths: []string{"/in"}, UseIgnem: true, ExtraLeadTime: 15 * time.Second,
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		// After completion + evict, no memory is pinned.
		if got := c.TotalPinnedBytes(); got != 0 {
			t.Errorf("pinned %d bytes after job completed", got)
		}
	})
}

func TestJobErrors(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		c := startCluster(t, v, cluster.ModeHDFS)
		defer c.Close()
		if _, err := c.Engine.Run(mapreduce.Config{ID: "", InputPaths: []string{"/x"}}); err == nil {
			t.Error("empty job ID accepted")
		}
		if _, err := c.Engine.Run(mapreduce.Config{ID: "j"}); err == nil {
			t.Error("job with no inputs accepted")
		}
		if _, err := c.Engine.Run(mapreduce.Config{ID: "j", InputPaths: []string{"/missing"}}); err == nil {
			t.Error("missing input accepted")
		}
	})
}

// TestTaskErrorFailsJob checks that a failed task fails its job: the
// second of two jobs writing the same OutputPath finds its part files
// already there, so its reduce tasks cannot create them and Run must
// return the error rather than a shorter duration.
func TestTaskErrorFailsJob(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		c := startCluster(t, v, cluster.ModeHDFS)
		defer c.Close()
		writeInput(t, c, "/in", 2*dfs.DefaultBlockSize)
		job := func(id dfs.JobID) error {
			_, err := c.Engine.Run(mapreduce.Config{
				ID:          id,
				InputPaths:  []string{"/in"},
				OutputBytes: 8 << 20,
				OutputPath:  "/out/shared",
			})
			return err
		}
		if err := job("first"); err != nil {
			t.Fatalf("first run: %v", err)
		}
		if err := job("second"); err == nil || !strings.Contains(err.Error(), "reduce stage") {
			t.Fatalf("second run over existing output: err = %v, want a reduce-stage error", err)
		}
	})
}

func TestMapTasksPreferLocalNodes(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		c := startCluster(t, v, cluster.ModeHDFS)
		defer c.Close()
		writeInput(t, c, "/in", 6*dfs.DefaultBlockSize)
		res, err := c.Engine.Run(mapreduce.Config{ID: "job", InputPaths: []string{"/in"}})
		if err != nil {
			t.Fatal(err)
		}
		local := 0
		for _, tr := range res.MapResults {
			if tr.NodeLocal {
				local++
			}
		}
		// With replication 3 on 4 nodes, most tasks should be node-local.
		if local < len(res.MapResults)/2 {
			t.Errorf("only %d/%d map tasks node-local", local, len(res.MapResults))
		}
	})
}

func wordcountMap(data []byte) []mapreduce.Pair {
	var out []mapreduce.Pair
	for _, w := range strings.Fields(string(data)) {
		out = append(out, mapreduce.Pair{Key: strings.ToLower(w), Value: "1"})
	}
	return out
}

func wordcountReduce(key string, values []string) mapreduce.Pair {
	return mapreduce.Pair{Key: key, Value: fmt.Sprint(len(values))}
}

func TestRealWordcount(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		c := startCluster(t, v, cluster.ModeIgnem)
		defer c.Close()
		cl, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.WriteFile("/corpus/a", []byte("the quick brown fox jumps over the lazy dog"), 0, 2); err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteFile("/corpus/b", []byte("the dog barks and the fox runs"), 0, 2); err != nil {
			t.Fatal(err)
		}
		res, err := c.Engine.RunReal(mapreduce.RealConfig{
			ID:         "wc",
			InputPaths: []string{"/corpus/a", "/corpus/b"},
			Map:        wordcountMap,
			Reduce:     wordcountReduce,
			Reducers:   2,
			UseIgnem:   true,
		})
		if err != nil {
			t.Fatalf("RunReal: %v", err)
		}
		counts := map[string]string{}
		for _, p := range res.OutputPaths {
			data, err := cl.ReadFile(p, "check")
			if err != nil {
				t.Fatalf("read output %s: %v", p, err)
			}
			for _, line := range strings.Split(string(data), "\n") {
				if line == "" {
					continue
				}
				kv := strings.SplitN(line, "\t", 2)
				if len(kv) == 2 {
					counts[kv[0]] = kv[1]
				}
			}
		}
		want := map[string]string{"the": "4", "fox": "2", "dog": "2", "quick": "1"}
		for k, wv := range want {
			if counts[k] != wv {
				t.Errorf("count[%s] = %s, want %s", k, counts[k], wv)
			}
		}
		if c.TotalPinnedBytes() != 0 {
			t.Error("real job leaked pinned memory")
		}
	})
}

func TestRealSortProducesSortedOutput(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		c := startCluster(t, v, cluster.ModeHDFS)
		defer c.Close()
		cl, _ := c.Client()
		defer cl.Close()
		if err := cl.WriteFile("/in/f", []byte("delta\nalpha\ncharlie\nbravo"), 0, 1); err != nil {
			t.Fatal(err)
		}
		res, err := c.Engine.RunReal(mapreduce.RealConfig{
			ID:         "sort",
			InputPaths: []string{"/in/f"},
			Map: func(data []byte) []mapreduce.Pair {
				var out []mapreduce.Pair
				for _, line := range strings.Split(string(data), "\n") {
					if line != "" {
						out = append(out, mapreduce.Pair{Key: line, Value: line})
					}
				}
				return out
			},
			Reducers: 1,
		})
		if err != nil {
			t.Fatalf("RunReal: %v", err)
		}
		data, err := cl.ReadFile(res.OutputPaths[0], "check")
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			keys = append(keys, strings.SplitN(line, "\t", 2)[0])
		}
		want := []string{"alpha", "bravo", "charlie", "delta"}
		if len(keys) != len(want) {
			t.Fatalf("keys = %v", keys)
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Errorf("output not sorted: %v", keys)
				break
			}
		}
	})
}

func TestConcurrentJobs(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		c := startCluster(t, v, cluster.ModeIgnem)
		defer c.Close()
		for i := 0; i < 4; i++ {
			writeInput(t, c, fmt.Sprintf("/in/%d", i), 2*dfs.DefaultBlockSize)
		}
		wg := simclock.NewWaitGroup(v)
		for i := 0; i < 4; i++ {
			i := i
			wg.Go(func() {
				_, err := c.Engine.Run(mapreduce.Config{
					ID:         dfs.JobID(fmt.Sprintf("job-%d", i)),
					InputPaths: []string{fmt.Sprintf("/in/%d", i)},
					UseIgnem:   true,
				})
				if err != nil {
					t.Errorf("job %d: %v", i, err)
				}
			})
		}
		wg.Wait()
		if got := c.TotalPinnedBytes(); got != 0 {
			t.Errorf("pinned %d bytes after all jobs done", got)
		}
	})
}

func TestRealJobValidation(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		c := startCluster(t, v, cluster.ModeHDFS)
		defer c.Close()
		if _, err := c.Engine.RunReal(mapreduce.RealConfig{}); err == nil {
			t.Error("empty real config accepted")
		}
		if _, err := c.Engine.RunReal(mapreduce.RealConfig{
			ID:         "j",
			InputPaths: []string{"/missing"},
			Map:        func([]byte) []mapreduce.Pair { return nil },
		}); err == nil {
			t.Error("missing input accepted")
		}
	})
}

// TestRealJobReduceFailureSurfaces: a reduce task whose output cannot
// be written (the part file already exists) fails the job with that
// error instead of reporting success with the output missing.
func TestRealJobReduceFailureSurfaces(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		c := startCluster(t, v, cluster.ModeHDFS)
		defer c.Close()
		cl, _ := c.Client()
		defer cl.Close()
		if err := cl.WriteFile("/in", []byte("k1 k2"), 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteFile("/out/taken/part-00000", []byte("x"), 0, 1); err != nil {
			t.Fatal(err)
		}
		_, err := c.Engine.RunReal(mapreduce.RealConfig{
			ID:         "taken",
			InputPaths: []string{"/in"},
			Map: func(data []byte) []mapreduce.Pair {
				return []mapreduce.Pair{{Key: "k", Value: string(data)}}
			},
		})
		if err == nil || !strings.Contains(err.Error(), "reduce stage") {
			t.Fatalf("RunReal over an existing part file: err = %v, want a reduce-stage error", err)
		}
	})
}

func TestRealJobIdentityReduce(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		c := startCluster(t, v, cluster.ModeHDFS)
		defer c.Close()
		cl, _ := c.Client()
		defer cl.Close()
		if err := cl.WriteFile("/in", []byte("k1 k2 k1"), 0, 1); err != nil {
			t.Fatal(err)
		}
		// Nil Reduce passes the first value through per key.
		res, err := c.Engine.RunReal(mapreduce.RealConfig{
			ID:         "identity",
			InputPaths: []string{"/in"},
			Map: func(data []byte) []mapreduce.Pair {
				var out []mapreduce.Pair
				for _, w := range strings.Fields(string(data)) {
					out = append(out, mapreduce.Pair{Key: w, Value: "v-" + w})
				}
				return out
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := cl.ReadFile(res.OutputPaths[0], "check")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "k1\tv-k1") || !strings.Contains(string(data), "k2\tv-k2") {
			t.Errorf("identity output:\n%s", data)
		}
		if res.InputBytes == 0 || len(res.BlockReads) == 0 {
			t.Errorf("result lacks instrumentation: %+v", res)
		}
	})
}
