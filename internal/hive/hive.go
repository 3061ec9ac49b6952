// Package hive models the paper's Hive/TPC-DS workload (§IV-B3, Fig 9):
// a catalog of queries with the input sizes and selectivities of the
// evaluated TPC-DS subset, compiled into chains of MapReduce stages, and
// the one-off framework hook that migrates a query's inputs right after
// compilation.
package hive

import (
	"fmt"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/client"
	"repro/internal/mapreduce"
)

// Query describes one catalog entry.
type Query struct {
	// Name is the TPC-DS query number, e.g. "q3".
	Name string
	// InputBytes is the bytes of warehouse partitions the first stage
	// scans (the paper's Fig 9b).
	InputBytes int64
	// Selectivity is the map-output/input ratio of the scan stage; the
	// SELECT list and WHERE predicates discard the rest.
	Selectivity float64
	// Stages is the number of MapReduce jobs in the compiled plan.
	Stages int
	// MapRateMBps models per-row predicate evaluation cost.
	MapRateMBps float64
}

// Catalog returns the evaluated queries in Fig 9's order (sorted by
// input size). The three largest — q82, q25, q29 — are the ones whose
// inputs exceed what Ignem can migrate within the lead-time.
func Catalog() []Query {
	gb := func(f float64) int64 { return int64(f * float64(1<<30)) }
	return []Query{
		{Name: "q52", InputBytes: gb(1.2), Selectivity: 0.08, Stages: 2, MapRateMBps: 500},
		{Name: "q42", InputBytes: gb(1.4), Selectivity: 0.08, Stages: 2, MapRateMBps: 500},
		{Name: "q3", InputBytes: gb(1.8), Selectivity: 0.06, Stages: 2, MapRateMBps: 500},
		{Name: "q7", InputBytes: gb(2.8), Selectivity: 0.12, Stages: 2, MapRateMBps: 450},
		{Name: "q19", InputBytes: gb(3.2), Selectivity: 0.10, Stages: 2, MapRateMBps: 450},
		{Name: "q34", InputBytes: gb(3.9), Selectivity: 0.15, Stages: 2, MapRateMBps: 450},
		{Name: "q27", InputBytes: gb(4.6), Selectivity: 0.15, Stages: 3, MapRateMBps: 400},
		{Name: "q82", InputBytes: gb(7.5), Selectivity: 0.20, Stages: 3, MapRateMBps: 400},
		{Name: "q25", InputBytes: gb(9.8), Selectivity: 0.22, Stages: 3, MapRateMBps: 400},
		{Name: "q29", InputBytes: gb(11.6), Selectivity: 0.25, Stages: 3, MapRateMBps: 400},
	}
}

// QueryResult reports one executed query.
type QueryResult struct {
	Name       string
	InputBytes int64
	Duration   time.Duration
}

// Hive runs catalog queries on a MapReduce engine.
type Hive struct {
	engine *mapreduce.Engine
	// UseIgnem enables the post-compile migration hook.
	UseIgnem bool
	// partitionBytes sizes warehouse partition files. Default 1 GB.
	partitionBytes int64
}

// New creates a Hive frontend over engine.
func New(engine *mapreduce.Engine, useIgnem bool) *Hive {
	return &Hive{engine: engine, UseIgnem: useIgnem, partitionBytes: 1 << 30}
}

// TablePaths returns the warehouse partition paths a query scans.
func (h *Hive) TablePaths(q Query) []string {
	n := int((q.InputBytes + h.partitionBytes - 1) / h.partitionBytes)
	if n < 1 {
		n = 1
	}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/warehouse/%s/part-%05d", q.Name, i)
	}
	return paths
}

// SetupTables writes each query's warehouse partitions into the DFS.
// Call once per cluster before running queries.
func (h *Hive) SetupTables(c *client.Client, queries []Query) error {
	for _, q := range queries {
		remaining := q.InputBytes
		for _, path := range h.TablePaths(q) {
			size := h.partitionBytes
			if remaining < size {
				size = remaining
			}
			if size <= 0 {
				break
			}
			if err := c.WriteSyntheticFile(path, size, 0, dfs.DefaultReplication); err != nil {
				return fmt.Errorf("hive: setup %s: %w", q.Name, err)
			}
			remaining -= size
		}
	}
	return nil
}

// RunQuery compiles and executes one query: the compile hook issues the
// Migrate call for the scan inputs (the paper's one-off Hive change),
// then the stage chain runs, each stage reading the previous stage's
// output.
func (h *Hive) RunQuery(q Query, runID string) (QueryResult, error) {
	start, err := h.engine.SubmitClient()
	if err != nil {
		return QueryResult{}, err
	}
	began := timeNow(h.engine)
	inputs := h.TablePaths(q)
	jobBase := fmt.Sprintf("%s-%s", q.Name, runID)

	shuffle := int64(float64(q.InputBytes) * q.Selectivity)
	stageIn := inputs
	for stage := 0; stage < q.Stages; stage++ {
		jobID := dfs.JobID(fmt.Sprintf("%s-s%d", jobBase, stage))
		out := fmt.Sprintf("/tmp/hive/%s/stage-%d", jobBase, stage)
		cfg := mapreduce.Config{
			ID:           jobID,
			InputPaths:   stageIn,
			MapRateMBps:  q.MapRateMBps,
			ShuffleBytes: shuffle,
			OutputBytes:  shuffle / 2,
			OutputPath:   out,
			// Only the scan stage reads cold warehouse data; the hook
			// migrates it. Later stages read freshly written
			// intermediates.
			UseIgnem:      h.UseIgnem && stage == 0,
			ImplicitEvict: true,
		}
		if stage == 0 {
			// Hive runs in a warm Tez session: the application master is
			// already up, so the scan stage pays only a short DAG-setup
			// cost. That setup window (plus compile time) is the query's
			// migration lead-time.
			cfg.SubmitOverhead = 3 * time.Second
		} else {
			// Later DAG stages run inside the same session and pay no
			// submission overhead at all.
			cfg.SubmitOverhead = -1
		}
		if _, err := h.engine.Run(cfg); err != nil {
			return QueryResult{}, fmt.Errorf("hive: %s stage %d: %w", q.Name, stage, err)
		}
		// Next stage reads this stage's output parts.
		files, err := start.List(out + "/")
		if err != nil {
			return QueryResult{}, err
		}
		var next []string
		for _, f := range files {
			next = append(next, f.Path)
		}
		stageIn = next
		if len(stageIn) == 0 {
			break // fully aggregated; nothing left to read
		}
		shuffle /= 4
	}
	return QueryResult{
		Name:       q.Name,
		InputBytes: q.InputBytes,
		Duration:   timeNow(h.engine).Sub(began),
	}, nil
}

func timeNow(e *mapreduce.Engine) time.Time { return e.Now() }
