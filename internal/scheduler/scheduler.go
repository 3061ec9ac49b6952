// Package scheduler implements a Yarn-like cluster resource manager: a
// FIFO job/task queue, per-node execution slots, and heartbeat-driven
// assignment.
//
// The scheduler is where a job's lead-time comes from (paper §II-C):
// tasks wait in the queue for slots, and assignment only happens on node
// heartbeats (Hadoop's default interval is 3 s). Ignem exploits exactly
// this window to migrate inputs before the tasks start reading.
//
// It also answers the Ignem slaves' liveness queries (IsActive), which is
// how reference lists of dead jobs get cleaned.
package scheduler

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
)

// TaskSpec describes one schedulable task.
type TaskSpec struct {
	// Name labels the task in metrics.
	Name string
	// PreferredNodes requests locality (input replica or migrated-copy
	// locations). Empty means any node.
	PreferredNodes []string
	// SecondaryNodes is a weaker preference tier: nodes acceptable when
	// no PreferredNodes slot frees up (e.g. the other replica holders
	// when Ignem assigned a specific one).
	SecondaryNodes []string
	// Run executes the task body on the node it was assigned to. It runs
	// on a simulation goroutine and may block on clock-aware waits.
	Run func(node string)
}

// TaskResult reports completion of one task.
type TaskResult struct {
	Name      string
	Node      string
	QueueTime time.Duration // submit → slot assignment (lead-time spent queued)
	RunTime   time.Duration
	// NodeLocal reports whether the task ran on one of its preferred
	// nodes.
	NodeLocal bool
}

// Config tunes the scheduler.
type Config struct {
	// Nodes lists the worker node addresses (the datanode addresses, so
	// locality preferences line up).
	Nodes []string
	// SlotsPerNode is the number of concurrent tasks per node.
	// Default 10 (the paper's Google-trace average).
	SlotsPerNode int
	// HeartbeatInterval is the node heartbeat period that gates task
	// assignment. Default 3s (Hadoop's default).
	HeartbeatInterval time.Duration
	// LocalityDelay is how long a task with locality preferences waits
	// in the queue before a non-preferred node may take it (delay
	// scheduling). Default: two heartbeat intervals, so every preferred
	// node gets at least one full heartbeat's chance first.
	LocalityDelay time.Duration
	// MaxAssignPerHeartbeat caps how many tasks one node may be handed
	// per heartbeat, spreading a burst of tasks across nodes instead of
	// flooding the first node that reports in. Default 3.
	MaxAssignPerHeartbeat int
}

func (c *Config) setDefaults() {
	if c.SlotsPerNode <= 0 {
		c.SlotsPerNode = 10
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 3 * time.Second
	}
	if c.LocalityDelay <= 0 {
		c.LocalityDelay = 2 * c.HeartbeatInterval
	}
	if c.MaxAssignPerHeartbeat <= 0 {
		c.MaxAssignPerHeartbeat = 3
	}
}

type task struct {
	spec      TaskSpec
	job       *Job
	submitted time.Time
	seq       uint64
}

type node struct {
	addr      string
	freeSlots int
}

// Scheduler is the cluster resource manager.
type Scheduler struct {
	clock simclock.Clock
	cfg   Config

	mu      sync.Mutex
	queue   []*task
	nodes   []*node
	jobs    map[dfs.JobID]*Job
	nextSeq uint64
	closed  bool
}

// New creates a scheduler (not yet running).
func New(clock simclock.Clock, cfg Config) *Scheduler {
	cfg.setDefaults()
	s := &Scheduler{
		clock: clock,
		cfg:   cfg,
		jobs:  make(map[dfs.JobID]*Job),
	}
	for _, addr := range cfg.Nodes {
		s.nodes = append(s.nodes, &node{addr: addr, freeSlots: cfg.SlotsPerNode})
	}
	return s
}

// Start launches the per-node heartbeat loops, staggered across the
// heartbeat interval like real node managers.
func (s *Scheduler) Start() {
	for i, n := range s.nodes {
		n := n
		offset := time.Duration(i) * s.cfg.HeartbeatInterval / time.Duration(len(s.nodes))
		s.clock.Go(func() {
			s.clock.Sleep(offset)
			s.heartbeatLoop(n)
		})
	}
}

// Close stops the heartbeat loops. Queued tasks are dropped; running
// tasks finish; stages blocked in RunTasks are released.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.queue = nil
	for _, j := range s.jobs {
		if j.pending > 0 {
			j.pending = 0
			j.done.Broadcast()
		}
	}
}

// SubmitJob registers a job and returns its handle. The job is "active"
// for liveness purposes until Complete or Kill.
func (s *Scheduler) SubmitJob(id dfs.JobID) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.jobs[id]; dup {
		return nil, fmt.Errorf("scheduler: job %s already submitted", id)
	}
	j := &Job{id: id, sched: s, submitted: s.clock.Now()}
	j.done = simclock.NewCond(s.clock, &s.mu)
	s.jobs[id] = j
	return j, nil
}

// IsActive implements the Ignem slaves' liveness query.
func (s *Scheduler) IsActive(job dfs.JobID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[job]
	return ok && !j.finished
}

// heartbeatLoop assigns queued tasks to n's free slots once per interval.
func (s *Scheduler) heartbeatLoop(n *node) {
	for {
		s.clock.Sleep(s.cfg.HeartbeatInterval)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		now := s.clock.Now()
		var launch []*task
		for n.freeSlots > 0 && len(launch) < s.cfg.MaxAssignPerHeartbeat {
			t := s.takeTaskLocked(n.addr, now)
			if t == nil {
				break
			}
			n.freeSlots--
			launch = append(launch, t)
		}
		s.mu.Unlock()
		for _, t := range launch {
			t := t
			s.clock.Go(func() { s.runTask(n, t, now) })
		}
	}
}

// takeTaskLocked pops the best task for node addr. Candidates are
// filtered in three locality tiers (preferred node, secondary node after
// half the locality delay, then anyone after the full delay); within a
// tier, fair sharing picks the candidate whose job has the fewest
// running tasks (FIFO as tie-break), so a one-task job is not starved
// behind a 400-task job's burst.
func (s *Scheduler) takeTaskLocked(addr string, now time.Time) *task {
	pick := s.pickFairLocked(func(t *task) bool {
		return contains(t.spec.PreferredNodes, addr)
	})
	if pick < 0 {
		pick = s.pickFairLocked(func(t *task) bool {
			return contains(t.spec.SecondaryNodes, addr) && now.Sub(t.submitted) >= s.cfg.LocalityDelay/2
		})
	}
	if pick < 0 {
		pick = s.pickFairLocked(func(t *task) bool {
			return (len(t.spec.PreferredNodes) == 0 && len(t.spec.SecondaryNodes) == 0) ||
				now.Sub(t.submitted) >= s.cfg.LocalityDelay
		})
	}
	if pick < 0 {
		return nil
	}
	t := s.queue[pick]
	s.queue = append(s.queue[:pick], s.queue[pick+1:]...)
	t.job.running++
	return t
}

// pickFairLocked returns the index of the eligible task whose job has
// the fewest running tasks, preferring earlier submission on ties.
func (s *Scheduler) pickFairLocked(eligible func(*task) bool) int {
	pick := -1
	best := 0
	for i, t := range s.queue {
		if !eligible(t) {
			continue
		}
		if pick < 0 || t.job.running < best {
			pick = i
			best = t.job.running
		}
	}
	return pick
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func (s *Scheduler) runTask(n *node, t *task, assigned time.Time) {
	t.spec.Run(n.addr)
	finished := s.clock.Now()

	local := contains(t.spec.PreferredNodes, n.addr) || contains(t.spec.SecondaryNodes, n.addr)
	res := TaskResult{
		Name:      t.spec.Name,
		Node:      n.addr,
		QueueTime: assigned.Sub(t.submitted),
		RunTime:   finished.Sub(assigned),
		NodeLocal: local,
	}
	s.mu.Lock()
	n.freeSlots++
	j := t.job
	j.running--
	j.results = append(j.results, res)
	j.pending--
	if j.pending == 0 {
		j.done.Broadcast()
	}
	// Container reuse (Tez-style): the freed slot immediately pulls the
	// next eligible task instead of idling until the node's heartbeat.
	var next *task
	if !s.closed {
		if next = s.takeTaskLocked(n.addr, finished); next != nil {
			n.freeSlots--
		}
	}
	s.mu.Unlock()
	if next != nil {
		s.clock.Go(func() { s.runTask(n, next, finished) })
	}
}

// Job is a handle for a submitted job.
type Job struct {
	id        dfs.JobID
	sched     *Scheduler
	submitted time.Time

	// guarded by sched.mu
	pending  int
	running  int
	results  []TaskResult
	finished bool
	done     *simclock.Cond
}

// ID returns the job's ID.
func (j *Job) ID() dfs.JobID { return j.id }

// SubmitTime returns when the job was submitted.
func (j *Job) SubmitTime() time.Time { return j.submitted }

// RunTasks enqueues tasks and blocks until all of them complete. It may
// be called multiple times (once per stage).
func (j *Job) RunTasks(tasks []TaskSpec) []TaskResult {
	if len(tasks) == 0 {
		return nil
	}
	s := j.sched
	s.mu.Lock()
	if s.closed || j.finished {
		s.mu.Unlock()
		return nil
	}
	now := s.clock.Now()
	first := len(j.results)
	j.pending += len(tasks)
	for i := range tasks {
		s.nextSeq++
		s.queue = append(s.queue, &task{spec: tasks[i], job: j, submitted: now, seq: s.nextSeq})
	}
	for j.pending > 0 {
		j.done.Wait()
	}
	out := make([]TaskResult, len(j.results)-first)
	copy(out, j.results[first:])
	s.mu.Unlock()
	return out
}

// Complete marks the job finished; liveness queries then report it dead.
func (j *Job) Complete() {
	s := j.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	j.finished = true
}

// Kill simulates a job dying without completing its lifecycle (no evict
// call): it is removed from the active set, which the Ignem cleanup
// sweep will eventually observe.
func (j *Job) Kill() { j.Complete() }

// Results returns all task results so far.
func (j *Job) Results() []TaskResult {
	s := j.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TaskResult, len(j.results))
	copy(out, j.results)
	return out
}
