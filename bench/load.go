package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// segments is how many equal slices the timed phase is cut into;
// throughputs are medians over them. Fixed on every commit.
const segments = 10

// warmupShare is the warm-up, as a share of the timed phase.
const warmupShare = 0.2

// phase is the clock of one closed-loop measurement: a warm-up whose
// samples are dropped, then segments equal slices.
type phase struct {
	warmEnd time.Time
	end     time.Time
	segLen  time.Duration
}

func newPhase(timed time.Duration) *phase {
	warm := time.Duration(float64(timed) * warmupShare)
	start := time.Now()
	return &phase{
		warmEnd: start.Add(warm),
		end:     start.Add(warm + timed),
		segLen:  timed / segments,
	}
}

// segmentAt returns the segment t falls in, or -1 during warm-up and
// after the end.
func (p *phase) segmentAt(t time.Time) int {
	if t.Before(p.warmEnd) || !t.Before(p.end) {
		return -1
	}
	return int(t.Sub(p.warmEnd) / p.segLen)
}

// sampler records one worker's counts and latencies by segment. The
// read observer calls it from the client's striping goroutines, hence
// the lock; it is never contended across workers.
type sampler struct {
	p *phase

	mu     sync.Mutex
	counts map[string]*[segments]float64
	lats   map[string]*[segments][]float64
}

func newSampler(p *phase) *sampler {
	return &sampler{
		p:      p,
		counts: make(map[string]*[segments]float64),
		lats:   make(map[string]*[segments][]float64),
	}
}

// countOver adds v (ops done, bytes moved) to the per-segment totals,
// spread over the segments the interval [t0, t1] overlaps in proportion
// to the overlap. Crediting a whole operation to the segment it ends in
// would quantize a segment's throughput to whole operations, which for
// a 64 MiB read is a step of several percent.
func (s *sampler) countOver(name string, v float64, t0, t1 time.Time) {
	total := t1.Sub(t0)
	if total <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counts[name]
	if c == nil {
		c = new([segments]float64)
		s.counts[name] = c
	}
	for seg := range c {
		lo := s.p.warmEnd.Add(time.Duration(seg) * s.p.segLen)
		hi := lo.Add(s.p.segLen)
		if t0.After(lo) {
			lo = t0
		}
		if t1.Before(hi) {
			hi = t1
		}
		if hi.After(lo) {
			c[seg] += v * float64(hi.Sub(lo)) / float64(total)
		}
	}
}

// observe records one latency sample, in the metric's own unit.
func (s *sampler) observe(name string, v float64) {
	seg := s.p.segmentAt(time.Now())
	if seg < 0 {
		return
	}
	s.mu.Lock()
	l := s.lats[name]
	if l == nil {
		l = new([segments][]float64)
		s.lats[name] = l
	}
	l[seg] = append(l[seg], v)
	s.mu.Unlock()
}

// timed runs fn and records its duration in milliseconds under name.
func (s *sampler) timed(name string, fn func()) {
	t0 := time.Now()
	fn()
	s.observe(name, float64(time.Since(t0))/1e6)
}

// merged is the union of the workers' samplers.
type merged struct {
	segLen time.Duration
	counts map[string]*[segments]float64
	lats   map[string]*[segments][]float64
}

func merge(p *phase, ss []*sampler) *merged {
	m := &merged{
		segLen: p.segLen,
		counts: make(map[string]*[segments]float64),
		lats:   make(map[string]*[segments][]float64),
	}
	for _, s := range ss {
		for name, c := range s.counts {
			if m.counts[name] == nil {
				m.counts[name] = new([segments]float64)
			}
			for i, v := range c {
				m.counts[name][i] += v
			}
		}
		for name, l := range s.lats {
			if m.lats[name] == nil {
				m.lats[name] = new([segments][]float64)
			}
			for i, v := range l {
				m.lats[name][i] = append(m.lats[name][i], v...)
			}
		}
	}
	return m
}

// total sums a count over the timed phase.
func (m *merged) total(name string) float64 {
	var t float64
	if c := m.counts[name]; c != nil {
		for _, v := range c {
			t += v
		}
	}
	return t
}

// rates returns a count's per-segment rate per second, scaled by k.
func (m *merged) rates(name string, k float64) []float64 {
	out := make([]float64, segments)
	if c := m.counts[name]; c != nil {
		for i, v := range c {
			out[i] = v * k / m.segLen.Seconds()
		}
	}
	return out
}

// pooled returns every sample of a latency, sorted.
func (m *merged) pooled(name string) []float64 {
	var all []float64
	if l := m.lats[name]; l != nil {
		for _, seg := range l {
			all = append(all, seg...)
		}
	}
	return sortedCopy(all)
}

// perSegment returns quantile q of a latency in each segment that has
// samples.
func (m *merged) perSegment(name string, q float64) []float64 {
	var out []float64
	if l := m.lats[name]; l != nil {
		for _, seg := range l {
			if len(seg) > 0 {
				out = append(out, quantile(sortedCopy(seg), q))
			}
		}
	}
	return out
}

// addThroughput reports a count as a rate: the median of the segments.
func (m *merged) addThroughput(r *WorkloadRecord, metric, count string, k float64) {
	r.addSegments(metric, m.rates(count, k))
}

// addP50 reports a latency's pooled median, scaled by k into the
// metric's unit.
func (m *merged) addP50(r *WorkloadRecord, metric, lat string, k float64) {
	all := m.pooled(lat)
	per := m.perSegment(lat, 0.5)
	for i := range per {
		per[i] *= k
	}
	r.addSummary(metric, quantile(all, 0.5)*k, len(all), per)
}

// addTail reports the highest percentile of a latency that still has
// ten samples beyond it; nothing when the sample supports only a
// median.
func (m *merged) addTail(r *WorkloadRecord, metric, lat string, k float64) {
	all := m.pooled(lat)
	p := tailPercentile(len(all))
	if p == 0 {
		return
	}
	per := m.perSegment(lat, p/100)
	for i := range per {
		per[i] *= k
	}
	r.addSummary(metric, quantile(all, p/100)*k, len(all), per)
}

// closedLoop runs one goroutine per step function, each calling it back
// to back until the phase ends, and returns the merged samples and the
// process cost of the timed part. step reports whether the operation
// succeeded; a worker stops at its first failure so a broken cluster
// cannot spin.
func closedLoop(timed time.Duration, steps []func(s *sampler, i int) error, rec *WorkloadRecord) (*merged, procDelta) {
	p := newPhase(timed)
	samplers := make([]*sampler, len(steps))
	var attempted, failed atomic.Int64
	var errMu sync.Mutex
	var wg sync.WaitGroup
	for w, step := range steps {
		samplers[w] = newSampler(p)
		wg.Add(1)
		go func(s *sampler, step func(*sampler, int) error) {
			defer wg.Done()
			for i := 0; time.Now().Before(p.end); i++ {
				attempted.Add(1)
				t0 := time.Now()
				if err := step(s, i); err != nil {
					failed.Add(1)
					errMu.Lock()
					rec.Errors = append(rec.Errors, err.Error())
					errMu.Unlock()
					return
				}
				t1 := time.Now()
				s.observe("op_ms", float64(t1.Sub(t0))/1e6)
				s.countOver("ops", 1, t0, t1)
			}
		}(samplers[w], step)
	}
	time.Sleep(time.Until(p.warmEnd))
	before := procNow()
	time.Sleep(time.Until(p.end))
	delta := procNow().sub(before)
	wg.Wait()
	rec.Attempted += attempted.Load()
	rec.Failed += failed.Load()
	return merge(p, samplers), delta
}

// addGeneric reports the end-to-end metrics every closed-loop workload
// shares.
func (m *merged) addGeneric(r *WorkloadRecord, d procDelta) {
	m.addThroughput(r, "ops_per_s", "ops", 1)
	m.addP50(r, "op_p50_ms", "op_ms", 1)
	m.addTail(r, "op_tail_ms", "op_ms", 1)
	if ops := m.total("ops"); ops > 0 {
		r.add("cpu_ms_per_op", d.cpu.Seconds()*1e3/ops)
	}
}

// procStats is a snapshot of what the process has cost so far.
type procStats struct {
	cpu     time.Duration
	mallocs uint64
}

type procDelta struct {
	cpu     time.Duration
	mallocs uint64
}

func procNow() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

func (a procStats) sub(b procStats) procDelta {
	return procDelta{cpu: a.cpu - b.cpu, mallocs: a.mallocs - b.mallocs}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kib, _ := strconv.ParseFloat(fields[0], 64)
				return kib / 1024
			}
		}
	}
	return 0
}
