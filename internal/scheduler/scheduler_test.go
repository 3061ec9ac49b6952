package scheduler

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/simclock"
)

var epoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func runSim(t *testing.T, fn func(v *simclock.Virtual)) {
	t.Helper()
	v := simclock.NewVirtual(epoch)
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		fn(v)
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("simulation stalled: %v", v)
	}
}

func newRunning(v *simclock.Virtual, nodes []string, slots int, hb time.Duration) *Scheduler {
	s := New(v, Config{Nodes: nodes, slots: slots, heartbeat: hb})
	s.Start()
	return s
}

func TestRunTasksCompletesAll(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		s := newRunning(v, []string{"n1", "n2"}, 2, time.Second)
		defer s.Close()
		j, err := s.SubmitJob("job1")
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		ran := 0
		tasks := make([]TaskSpec, 8)
		for i := range tasks {
			tasks[i] = TaskSpec{Name: "t", Run: func(string) {
				v.Sleep(500 * time.Millisecond)
				mu.Lock()
				ran++
				mu.Unlock()
			}}
		}
		results := j.RunTasks(tasks)
		if ran != 8 || len(results) != 8 {
			t.Errorf("ran=%d results=%d", ran, len(results))
		}
		for _, r := range results {
			if r.RunTime < 500*time.Millisecond {
				t.Errorf("RunTime = %v", r.RunTime)
			}
		}
	})
}

func TestQueueingCreatesLeadTime(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		// One node, one slot: tasks serialize and queue time accumulates.
		s := newRunning(v, []string{"n1"}, 1, time.Second)
		defer s.Close()
		j, _ := s.SubmitJob("job1")
		tasks := make([]TaskSpec, 3)
		for i := range tasks {
			tasks[i] = TaskSpec{Run: func(string) { v.Sleep(10 * time.Second) }}
		}
		results := j.RunTasks(tasks)
		var maxQueue time.Duration
		for _, r := range results {
			if r.QueueTime > maxQueue {
				maxQueue = r.QueueTime
			}
		}
		// The third task waits for two 10s executions plus heartbeats.
		if maxQueue < 20*time.Second {
			t.Errorf("max queue time %v, want >= 20s", maxQueue)
		}
	})
}

func TestHeartbeatGatesAssignment(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		hb := 3 * time.Second
		s := newRunning(v, []string{"n1"}, 4, hb)
		defer s.Close()
		j, _ := s.SubmitJob("job1")
		start := v.Now()
		var assignedAt time.Time
		j.RunTasks([]TaskSpec{{Run: func(string) { assignedAt = v.Now() }}})
		// Assignment happens only on a heartbeat: strictly after submit,
		// within one interval.
		d := assignedAt.Sub(start)
		if d <= 0 || d > hb {
			t.Errorf("assignment delay %v, want (0, %v]", d, hb)
		}
	})
}

func TestLocalityPreferred(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		s := newRunning(v, []string{"n1", "n2", "n3"}, 2, time.Second)
		defer s.Close()
		j, _ := s.SubmitJob("job1")
		tasks := make([]TaskSpec, 6)
		for i := range tasks {
			pref := []string{"n2"}
			tasks[i] = TaskSpec{PreferredNodes: pref, Run: func(string) { v.Sleep(100 * time.Millisecond) }}
		}
		results := j.RunTasks(tasks)
		local := 0
		for _, r := range results {
			if r.NodeLocal {
				local++
			}
		}
		// n2 has 2 slots; with 1s heartbeats and 100ms tasks, most tasks
		// should land on their preferred node.
		if local < 3 {
			t.Errorf("only %d/6 tasks node-local", local)
		}
	})
}

func TestSpilloverWhenPreferredBusy(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		s := newRunning(v, []string{"n1", "n2"}, 1, time.Second)
		defer s.Close()
		j, _ := s.SubmitJob("job1")
		// Two long tasks prefer n1; one must spill to n2 rather than wait
		// forever (FIFO fallback).
		tasks := []TaskSpec{
			{PreferredNodes: []string{"n1"}, Run: func(string) { v.Sleep(30 * time.Second) }},
			{PreferredNodes: []string{"n1"}, Run: func(string) { v.Sleep(30 * time.Second) }},
		}
		results := j.RunTasks(tasks)
		nodes := map[string]int{}
		for _, r := range results {
			nodes[r.Node]++
		}
		if nodes["n2"] != 1 {
			t.Errorf("no spillover: %v", nodes)
		}
	})
}

func TestIsActiveLifecycle(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		s := newRunning(v, []string{"n1"}, 1, time.Second)
		defer s.Close()
		if s.IsActive("nope") {
			t.Error("unknown job active")
		}
		j, _ := s.SubmitJob("job1")
		if !s.IsActive("job1") {
			t.Error("submitted job not active")
		}
		j.Complete()
		if s.IsActive("job1") {
			t.Error("completed job still active")
		}
	})
}

func TestDuplicateSubmitRejected(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		s := newRunning(v, []string{"n1"}, 1, time.Second)
		defer s.Close()
		if _, err := s.SubmitJob("j"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SubmitJob("j"); err == nil {
			t.Error("duplicate submit accepted")
		}
	})
}

func TestMultiStageJob(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		s := newRunning(v, []string{"n1", "n2"}, 4, time.Second)
		defer s.Close()
		j, _ := s.SubmitJob("mr")
		var order []string
		var mu sync.Mutex
		mk := func(stage string, n int) []TaskSpec {
			tasks := make([]TaskSpec, n)
			for i := range tasks {
				tasks[i] = TaskSpec{Run: func(string) {
					v.Sleep(time.Second)
					mu.Lock()
					order = append(order, stage)
					mu.Unlock()
				}}
			}
			return tasks
		}
		j.RunTasks(mk("map", 4))
		j.RunTasks(mk("reduce", 2))
		j.Complete()
		if len(order) != 6 {
			t.Fatalf("ran %d tasks", len(order))
		}
		for _, stage := range order[:4] {
			if stage != "map" {
				t.Errorf("stage barrier violated: %v", order)
			}
		}
		for _, stage := range order[4:] {
			if stage != "reduce" {
				t.Errorf("stage barrier violated: %v", order)
			}
		}
	})
}

func TestManyConcurrentJobsShareCluster(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		s := newRunning(v, []string{"n1", "n2", "n3", "n4"}, 4, time.Second)
		defer s.Close()
		wg := simclock.NewWaitGroup(v)
		var mu sync.Mutex
		completed := 0
		for i := 0; i < 12; i++ {
			i := i
			wg.Go(func() {
				j, err := s.SubmitJob(dfs.JobID(fmt.Sprintf("job-%d", i)))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				tasks := make([]TaskSpec, 3)
				for k := range tasks {
					tasks[k] = TaskSpec{Run: func(string) { v.Sleep(2 * time.Second) }}
				}
				j.RunTasks(tasks)
				j.Complete()
				mu.Lock()
				completed++
				mu.Unlock()
			})
		}
		wg.Wait()
		if completed != 12 {
			t.Errorf("completed %d/12 jobs", completed)
		}
	})
}

func TestFairSharingAcrossJobs(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		s := newRunning(v, []string{"n1"}, 2, time.Second)
		defer s.Close()
		big, _ := s.SubmitJob("big")
		small, _ := s.SubmitJob("small")

		var mu sync.Mutex
		var order []string
		mk := func(job string, n int) []TaskSpec {
			tasks := make([]TaskSpec, n)
			for i := range tasks {
				tasks[i] = TaskSpec{Run: func(string) {
					mu.Lock()
					order = append(order, job)
					mu.Unlock()
					v.Sleep(5 * time.Second)
				}}
			}
			return tasks
		}
		wg := simclock.NewWaitGroup(v)
		wg.Go(func() { big.RunTasks(mk("big", 8)) })
		wg.Go(func() {
			v.Sleep(500 * time.Millisecond) // small job arrives just after
			small.RunTasks(mk("small", 1))
		})
		wg.Wait()
		// Fair sharing must start the small job's task well before the
		// big job's burst drains: it appears within the first 4 starts.
		mu.Lock()
		defer mu.Unlock()
		pos := -1
		for i, j := range order {
			if j == "small" {
				pos = i
				break
			}
		}
		if pos < 0 || pos > 3 {
			t.Errorf("small job started at position %d of %v", pos, order)
		}
	})
}

func TestContainerReuseAvoidsHeartbeatStalls(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		// 1 node, 1 slot, 10ms tasks: with container reuse, 20 tasks take
		// ~one heartbeat plus ~200ms, nowhere near 20 heartbeats.
		s := newRunning(v, []string{"n1"}, 1, 3*time.Second)
		defer s.Close()
		j, _ := s.SubmitJob("j")
		tasks := make([]TaskSpec, 20)
		for i := range tasks {
			tasks[i] = TaskSpec{Run: func(string) { v.Sleep(10 * time.Millisecond) }}
		}
		start := v.Now()
		j.RunTasks(tasks)
		if d := v.Now().Sub(start); d > 5*time.Second {
			t.Errorf("20 reused tasks took %v; container reuse broken", d)
		}
	})
}

func TestMaxAssignPerHeartbeatSpreadsBurst(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		s := New(v, Config{
			Nodes: []string{"n1", "n2"}, slots: 10,
			heartbeat: time.Second, MaxAssignPerHeartbeat: 2,
		})
		s.Start()
		defer s.Close()
		j, _ := s.SubmitJob("burst")
		// 8 long tasks with no preference: the first heartbeat may hand a
		// node at most 2, so the burst spreads across both nodes.
		tasks := make([]TaskSpec, 8)
		for i := range tasks {
			tasks[i] = TaskSpec{Run: func(string) { v.Sleep(30 * time.Second) }}
		}
		results := j.RunTasks(tasks)
		byNode := map[string]int{}
		for _, r := range results {
			byNode[r.Node]++
		}
		if byNode["n1"] != 4 || byNode["n2"] != 4 {
			t.Errorf("burst not spread: %v", byNode)
		}
	})
}

func TestRunTasksEmpty(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		s := newRunning(v, []string{"n1"}, 1, time.Second)
		defer s.Close()
		j, _ := s.SubmitJob("j")
		if got := j.RunTasks(nil); got != nil {
			t.Errorf("RunTasks(nil) = %v", got)
		}
	})
}

// TestResultsAccessor checks that each RunTasks call returns the results
// of its own stage only.
func TestResultsAccessor(t *testing.T) {
	runSim(t, func(v *simclock.Virtual) {
		s := newRunning(v, []string{"n1"}, 2, time.Second)
		defer s.Close()
		j, _ := s.SubmitJob("j")
		if got := len(j.RunTasks([]TaskSpec{{Run: func(string) {}}, {Run: func(string) {}}})); got != 2 {
			t.Errorf("first stage returned %d results, want 2", got)
		}
		if got := len(j.RunTasks([]TaskSpec{{Run: func(string) {}}})); got != 1 {
			t.Errorf("second stage returned %d results, want 1", got)
		}
	})
}
