// Package mapreduce implements the execution engine that drives the
// paper's workloads: map tasks that read HDFS blocks (the stage Ignem
// accelerates), a modeled shuffle, reduce tasks, and output writes.
//
// Jobs run in one of two modes:
//
//   - Modeled: inputs are synthetic (sized) blocks; map/reduce compute is
//     charged through rate parameters. This is how the experiment-scale
//     workloads (SWIM, sort, wordcount sweeps, Hive) run.
//   - Real: map and reduce functions process actual bytes end to end
//     (RunReal), used by the runnable examples.
//
// The job submitter integration matches the paper: before a job is
// handed to the scheduler, a single Migrate call tells Ignem what the job
// will read; on completion an Evict call releases it.
package mapreduce

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/scheduler"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// Config describes one modeled MapReduce job.
type Config struct {
	// ID identifies the job cluster-wide (reference lists, liveness).
	ID dfs.JobID
	// InputPaths are the DFS files the map stage reads.
	InputPaths []string

	// MapRateMBps is the map compute throughput over input bytes;
	// 0 means reading dominates and compute is negligible.
	MapRateMBps float64

	// ShuffleBytes is the total map→reduce traffic. The engine charges
	// it against the network model across the reducers.
	ShuffleBytes int64
	// OutputBytes is the total job output written back to the DFS.
	OutputBytes int64
	// Reducers is the reduce-task count; default ceil(ShuffleBytes/256MB)
	// (minimum 1) when there is any shuffle or output.
	Reducers int
	// ReduceRateMBps is the reduce compute throughput over shuffle bytes;
	// 0 means negligible.
	ReduceRateMBps float64
	// OutputPath defaults to "/out/<job id>".
	OutputPath string

	// UseIgnem makes the submitter issue the Migrate call.
	UseIgnem bool
	// ImplicitEvict opts into eviction-on-read.
	ImplicitEvict bool
	// KeepPinned leaves the job's migrated inputs pinned at completion
	// instead of evicting. Iterative applications use it so later passes
	// reuse the in-memory copy, then evict once at the very end (via
	// client.Evict). The slave's liveness sweep still reclaims the pins
	// if the caller forgets.
	KeepPinned bool
	// ExtraLeadTime delays submission after the Migrate call (the
	// paper's Ignem+10s experiment); it is counted in the job duration.
	ExtraLeadTime time.Duration
	// SubmitOverhead is the platform cost between the submitter running
	// (where the Migrate call sits) and the job's tasks becoming
	// runnable: application-master startup, shipping binaries, JVM
	// warm-up (paper §II-C's lead-time sources). Negative disables it;
	// zero takes defaultSubmitOverhead.
	SubmitOverhead time.Duration
}

// taskOverhead is the fixed per-task cost (container launch, JVM
// warm-up) of simulated and real-data tasks alike.
const taskOverhead = 250 * time.Millisecond

// defaultSubmitOverhead is the platform overhead a job pays when its
// Config leaves SubmitOverhead zero: 8s, which together with scheduler
// heartbeats yields the ~10s natural lead-time §IV-F reports.
const defaultSubmitOverhead = 8 * time.Second

func (c *Config) setDefaults() {
	if c.Reducers <= 0 && (c.ShuffleBytes > 0 || c.OutputBytes > 0) {
		c.Reducers = int((c.ShuffleBytes + (256 << 20) - 1) / (256 << 20))
		if c.Reducers < 1 {
			c.Reducers = 1
		}
	}
	if c.OutputPath == "" {
		c.OutputPath = "/out/" + string(c.ID)
	}
}

// Result reports a finished job.
type Result struct {
	Job        dfs.JobID
	InputBytes int64
	Submitted  time.Time
	Finished   time.Time
	// Duration is wall time from the submitter starting (including the
	// migrate call and any inserted lead-time) to job completion.
	Duration time.Duration
	// MapResults are the scheduler-level map task results.
	MapResults []scheduler.TaskResult
	// BlockReads are the instrumented block reads of the map stage.
	BlockReads []client.BlockReadEvent
	// MigratedBlocks counts map-stage reads served from pinned memory.
	MigratedBlocks int
}

// shuffleMBps is the network bandwidth a reducer's shuffle fetch is
// charged at: the cluster fabric's 1250 MB/s (10 GbE).
const shuffleMBps = 1250

// Engine runs MapReduce jobs on a scheduler and a DFS.
type Engine struct {
	clock  simclock.Clock
	sched  *scheduler.Scheduler
	net    transport.Network
	nnAddr string

	mu      sync.Mutex
	submit  *client.Client
	clients map[string]*client.Client
	readers map[dfs.JobID]*readCollector
}

type readCollector struct {
	mu     sync.Mutex
	events []client.BlockReadEvent
}

// NewEngine creates an engine. It dials the namenode lazily per node.
func NewEngine(clock simclock.Clock, sched *scheduler.Scheduler, net transport.Network, nnAddr string) *Engine {
	return &Engine{
		clock:   clock,
		sched:   sched,
		net:     net,
		nnAddr:  nnAddr,
		clients: make(map[string]*client.Client),
		readers: make(map[dfs.JobID]*readCollector),
	}
}

// Now returns the engine's current (possibly virtual) time.
func (e *Engine) Now() time.Time { return e.clock.Now() }

// Close releases all DFS connections held by the engine.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.submit != nil {
		e.submit.Close()
		e.submit = nil
	}
	for _, c := range e.clients {
		c.Close()
	}
	e.clients = make(map[string]*client.Client)
}

// SubmitClient returns the engine's off-node DFS client (the job
// submitter's client), dialing on first use.
func (e *Engine) SubmitClient() (*client.Client, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.submitLocked()
}

func (e *Engine) submitLocked() (*client.Client, error) {
	if e.submit == nil {
		c, err := client.New(e.clock, e.net, e.nnAddr, client.WithReadObserver(e.dispatch))
		if err != nil {
			return nil, err
		}
		e.submit = c
	}
	return e.submit, nil
}

// nodeClient returns the cached task client co-located with node.
func (e *Engine) nodeClient(node string) (*client.Client, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.clients[node]; ok {
		return c, nil
	}
	c, err := client.New(e.clock, e.net, e.nnAddr,
		client.WithLocalAddr(node), client.WithReadObserver(e.dispatch))
	if err != nil {
		return nil, err
	}
	e.clients[node] = c
	return c, nil
}

// dispatch routes block-read events to the running job that issued them.
func (e *Engine) dispatch(ev client.BlockReadEvent) {
	e.mu.Lock()
	rc := e.readers[ev.Job]
	e.mu.Unlock()
	if rc == nil {
		return
	}
	rc.mu.Lock()
	rc.events = append(rc.events, ev)
	rc.mu.Unlock()
}

// Run executes one modeled job and blocks until it finishes.
func (e *Engine) Run(cfg Config) (Result, error) {
	cfg.setDefaults()
	if cfg.ID == "" {
		return Result{}, fmt.Errorf("mapreduce: empty job ID")
	}
	if len(cfg.InputPaths) == 0 {
		return Result{}, fmt.Errorf("mapreduce: job %s has no inputs", cfg.ID)
	}
	start := e.clock.Now()

	sc, err := e.SubmitClient()
	if err != nil {
		return Result{}, err
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

	// The job submitter's Ignem hook: one call, before submission.
	if cfg.UseIgnem {
		if _, err := sc.Migrate(cfg.ID, cfg.InputPaths, cfg.ImplicitEvict); err != nil {
			return Result{}, fmt.Errorf("mapreduce: migrate: %w", err)
		}
	}
	if cfg.ExtraLeadTime > 0 {
		e.clock.Sleep(cfg.ExtraLeadTime)
	}
	switch {
	case cfg.SubmitOverhead > 0:
		e.clock.Sleep(cfg.SubmitOverhead)
	case cfg.SubmitOverhead == 0:
		e.clock.Sleep(defaultSubmitOverhead)
	}

	// Resolve inputs to blocks; one map task per block.
	type split struct {
		path string
		lb   dfs.LocatedBlock
	}
	var splits []split
	var inputBytes int64
	for _, path := range cfg.InputPaths {
		lbs, err := sc.LocationsForJob(path, cfg.ID)
		if err != nil {
			return Result{}, fmt.Errorf("mapreduce: %w", err)
		}
		for _, lb := range lbs {
			splits = append(splits, split{path: path, lb: lb})
			inputBytes += lb.Block.Size
		}
	}

	job, err := e.sched.SubmitJob(cfg.ID)
	if err != nil {
		return Result{}, err
	}

	// A failed task does not stop its siblings; the first error fails
	// the job once its stage has drained.
	var errMu sync.Mutex
	var taskErr error

	mapTasks := make([]scheduler.TaskSpec, len(splits))
	for i, sp := range splits {
		sp := sp
		// Every replica holder is preferred alike, the migrated copy's
		// too, so an idle cluster can start the task anywhere at its next
		// heartbeat; the read path still finds the migrated copy remotely
		// (the paper: a task that cannot run on the migrated server "can
		// still efficiently read the block over the network").
		mapTasks[i] = scheduler.TaskSpec{
			Name:           fmt.Sprintf("%s-map-%d", cfg.ID, i),
			PreferredNodes: sp.lb.Nodes,
			Run: func(node string) {
				if err := e.runMapTask(node, cfg, sp.path, sp.lb); err != nil {
					recordErr(&errMu, &taskErr, err)
				}
			},
		}
	}
	mapResults := job.RunTasks(mapTasks)
	if taskErr != nil {
		job.Complete()
		return Result{}, fmt.Errorf("mapreduce: map stage: %w", taskErr)
	}

	// Shuffle + reduce stage.
	if cfg.Reducers > 0 {
		reduceTasks := make([]scheduler.TaskSpec, cfg.Reducers)
		shufflePer := cfg.ShuffleBytes / int64(cfg.Reducers)
		outPer := cfg.OutputBytes / int64(cfg.Reducers)
		for i := range reduceTasks {
			i := i
			reduceTasks[i] = scheduler.TaskSpec{
				Name: fmt.Sprintf("%s-reduce-%d", cfg.ID, i),
				Run: func(node string) {
					if err := e.runReduceTask(node, cfg, i, shufflePer, outPer); err != nil {
						recordErr(&errMu, &taskErr, err)
					}
				},
			}
		}
		job.RunTasks(reduceTasks)
		if taskErr != nil {
			job.Complete()
			return Result{}, fmt.Errorf("mapreduce: reduce stage: %w", taskErr)
		}
	}

	// Completion: release the inputs and the scheduler entry.
	if cfg.UseIgnem && !cfg.KeepPinned {
		if _, err := sc.Evict(cfg.ID, cfg.InputPaths); err != nil {
			return Result{}, fmt.Errorf("mapreduce: evict: %w", err)
		}
	}
	job.Complete()

	end := e.clock.Now()
	rc.mu.Lock()
	events := make([]client.BlockReadEvent, len(rc.events))
	copy(events, rc.events)
	rc.mu.Unlock()
	migrated := 0
	for _, ev := range events {
		if ev.FromMemory {
			migrated++
		}
	}
	return Result{
		Job:            cfg.ID,
		InputBytes:     inputBytes,
		Submitted:      start,
		Finished:       end,
		Duration:       end.Sub(start),
		MapResults:     mapResults,
		BlockReads:     events,
		MigratedBlocks: migrated,
	}, nil
}

func (e *Engine) runMapTask(node string, cfg Config, path string, lb dfs.LocatedBlock) error {
	e.clock.Sleep(taskOverhead)
	c, err := e.nodeClient(node)
	if err != nil {
		return err
	}
	// Re-resolve the block so the read sees migration state that arrived
	// after job submission — this is how a task learns a migrated copy
	// exists and expresses the paper's locality preference. Only this
	// block's byte range is asked for, so the namenode's work per task
	// does not grow with the file.
	if fresh, err := c.LocationsInRange(path, cfg.ID, lb.Offset, lb.Block.Size); err == nil {
		for _, flb := range fresh {
			if flb.Block.ID == lb.Block.ID {
				lb = flb
				break
			}
		}
	}
	resp, err := c.ReadBlock(lb, cfg.ID)
	if err != nil {
		return fmt.Errorf("%s block %d: %w", path, lb.Block.ID, err)
	}
	resp.Release()
	if cfg.MapRateMBps > 0 {
		e.clock.Sleep(rateTime(lb.Block.Size, cfg.MapRateMBps))
	}
	return nil
}

func (e *Engine) runReduceTask(node string, cfg Config, idx int, shuffleBytes, outBytes int64) error {
	e.clock.Sleep(taskOverhead)
	// Fetch the shuffle partition over the network.
	if shuffleBytes > 0 {
		e.clock.Sleep(rateTime(shuffleBytes, shuffleMBps))
	}
	if cfg.ReduceRateMBps > 0 && shuffleBytes > 0 {
		e.clock.Sleep(rateTime(shuffleBytes, cfg.ReduceRateMBps))
	}
	if outBytes == 0 {
		return nil
	}
	c, err := e.nodeClient(node)
	if err != nil {
		return err
	}
	return c.WriteSyntheticFile(fmt.Sprintf("%s/part-%05d", cfg.OutputPath, idx), outBytes, 0, 1)
}

func rateTime(bytes int64, mbps float64) time.Duration {
	return time.Duration(float64(bytes) / (mbps * 1e6) * float64(time.Second))
}
