package mapreduce

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/scheduler"
)

// Pair is one key/value record flowing between real map and reduce
// functions.
type Pair struct {
	Key   string
	Value string
}

// RealConfig describes a job whose map and reduce functions process
// actual bytes (the runnable examples: wordcount, sort, grep).
type RealConfig struct {
	// ID identifies the job cluster-wide.
	ID dfs.JobID
	// InputPaths are the input files; each file is one map task, so
	// records never straddle task boundaries.
	InputPaths []string
	// Map turns one input file's bytes into key/value pairs.
	Map func(data []byte) []Pair
	// Reduce folds all values of one key into a single output pair.
	// Nil means identity (each pair passes through).
	Reduce func(key string, values []string) Pair
	// Reducers is the reduce-task count (default 1). Keys are hash
	// partitioned; each reducer emits one sorted output part, written
	// under "/out/<job id>" as "key\tvalue" lines.
	Reducers int

	// UseIgnem and ImplicitEvict control the submitter's migration hook.
	UseIgnem      bool
	ImplicitEvict bool
}

// RealResult reports a finished real-data job.
type RealResult struct {
	Job         dfs.JobID
	Duration    time.Duration
	InputBytes  int64
	OutputPaths []string
	MapResults  []scheduler.TaskResult
	// BlockReads are the instrumented input block reads.
	BlockReads []client.BlockReadEvent
}

// RunReal executes a real-data MapReduce job and blocks until it
// finishes, including writing its output files to the DFS.
func (e *Engine) RunReal(cfg RealConfig) (RealResult, error) {
	if cfg.ID == "" || len(cfg.InputPaths) == 0 || cfg.Map == nil {
		return RealResult{}, fmt.Errorf("mapreduce: real job needs ID, inputs and a map function")
	}
	if cfg.Reducers <= 0 {
		cfg.Reducers = 1
	}
	start := e.clock.Now()

	sc, err := e.SubmitClient()
	if err != nil {
		return RealResult{}, err
	}
	rc := &readCollector{}
	e.mu.Lock()
	e.readers[cfg.ID] = rc
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.readers, cfg.ID)
		e.mu.Unlock()
	}()
	if cfg.UseIgnem {
		if _, err := sc.Migrate(cfg.ID, cfg.InputPaths, cfg.ImplicitEvict); err != nil {
			return RealResult{}, fmt.Errorf("mapreduce: migrate: %w", err)
		}
	}
	e.clock.Sleep(defaultSubmitOverhead)

	var inputBytes int64
	taskPrefs := make([][]string, len(cfg.InputPaths))
	for i, path := range cfg.InputPaths {
		lbs, err := sc.LocationsForJob(path, cfg.ID)
		if err != nil {
			return RealResult{}, err
		}
		prefSet := map[string]struct{}{}
		for _, lb := range lbs {
			inputBytes += lb.Block.Size
			for _, n := range lb.Nodes {
				prefSet[n] = struct{}{}
			}
		}
		for n := range prefSet {
			taskPrefs[i] = append(taskPrefs[i], n)
		}
		sort.Strings(taskPrefs[i])
	}

	job, err := e.sched.SubmitJob(cfg.ID)
	if err != nil {
		return RealResult{}, err
	}

	// Map stage: each task reads its whole file and emits partitioned
	// pairs into the shuffle.
	partitions := make([]map[string][]string, cfg.Reducers)
	for i := range partitions {
		partitions[i] = make(map[string][]string)
	}
	var shuffleMu sync.Mutex
	var shuffleBytes int64
	var firstErr error

	mapTasks := make([]scheduler.TaskSpec, len(cfg.InputPaths))
	for i, path := range cfg.InputPaths {
		i, path := i, path
		mapTasks[i] = scheduler.TaskSpec{
			Name:           fmt.Sprintf("%s-map-%d", cfg.ID, i),
			PreferredNodes: taskPrefs[i],
			Run: func(node string) {
				e.clock.Sleep(taskOverhead)
				c, err := e.nodeClient(node)
				if err != nil {
					recordErr(&shuffleMu, &firstErr, err)
					return
				}
				data, err := c.ReadFile(path, cfg.ID)
				if err != nil {
					recordErr(&shuffleMu, &firstErr, err)
					return
				}
				pairs := cfg.Map(data)
				shuffleMu.Lock()
				for _, p := range pairs {
					idx := partition(p.Key, cfg.Reducers)
					partitions[idx][p.Key] = append(partitions[idx][p.Key], p.Value)
					shuffleBytes += int64(len(p.Key) + len(p.Value))
				}
				shuffleMu.Unlock()
			},
		}
	}
	mapResults := job.RunTasks(mapTasks)
	if firstErr != nil {
		job.Complete()
		return RealResult{}, fmt.Errorf("mapreduce: map stage: %w", firstErr)
	}

	// Reduce stage: each task folds its partition and writes one sorted
	// output part to the DFS.
	outPaths := make([]string, cfg.Reducers)
	reduceTasks := make([]scheduler.TaskSpec, cfg.Reducers)
	for i := range reduceTasks {
		i := i
		reduceTasks[i] = scheduler.TaskSpec{
			Name: fmt.Sprintf("%s-reduce-%d", cfg.ID, i),
			Run: func(node string) {
				e.clock.Sleep(taskOverhead)
				// Charge the shuffle fetch against the network model.
				e.clock.Sleep(rateTime(shuffleBytes/int64(cfg.Reducers), shuffleMBps))
				part := partitions[i]
				keys := make([]string, 0, len(part))
				for k := range part {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				var out []byte
				for _, k := range keys {
					p := Pair{Key: k}
					if cfg.Reduce != nil {
						p = cfg.Reduce(k, part[k])
					} else if len(part[k]) > 0 {
						p.Value = part[k][0]
					}
					out = append(out, p.Key...)
					out = append(out, '\t')
					out = append(out, p.Value...)
					out = append(out, '\n')
				}
				c, err := e.nodeClient(node)
				if err != nil {
					recordErr(&shuffleMu, &firstErr, err)
					return
				}
				path := fmt.Sprintf("/out/%s/part-%05d", cfg.ID, i)
				if len(out) == 0 {
					out = []byte{'\n'}
				}
				if err := c.WriteFile(path, out, 0, 1); err != nil {
					recordErr(&shuffleMu, &firstErr, err)
					return
				}
				shuffleMu.Lock()
				outPaths[i] = path
				shuffleMu.Unlock()
			},
		}
	}
	job.RunTasks(reduceTasks)
	if firstErr != nil {
		job.Complete()
		return RealResult{}, fmt.Errorf("mapreduce: reduce stage: %w", firstErr)
	}

	if cfg.UseIgnem {
		if _, err := sc.Evict(cfg.ID, cfg.InputPaths); err != nil {
			return RealResult{}, fmt.Errorf("mapreduce: evict: %w", err)
		}
	}
	job.Complete()
	rc.mu.Lock()
	events := make([]client.BlockReadEvent, len(rc.events))
	copy(events, rc.events)
	rc.mu.Unlock()
	return RealResult{
		Job:         cfg.ID,
		Duration:    e.clock.Now().Sub(start),
		InputBytes:  inputBytes,
		OutputPaths: outPaths,
		MapResults:  mapResults,
		BlockReads:  events,
	}, nil
}

func recordErr(mu *sync.Mutex, dst *error, err error) {
	mu.Lock()
	defer mu.Unlock()
	if *dst == nil {
		*dst = err
	}
}

func partition(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}
