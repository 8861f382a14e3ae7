// Package core is the study API: it drives every experiment of the paper —
// each table and figure of the evaluation — on top of the full flow, and
// holds the published reference data used for comparisons. This is the
// package the example programs and the experiment harness build on.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"tmi3d/internal/flow"
	"tmi3d/internal/power"
	"tmi3d/internal/report"
	"tmi3d/internal/tech"
)

// Study runs the paper's experiments at a chosen circuit scale (1.0 = the
// paper's full benchmark sizes; smaller scales keep every relationship while
// trimming wall-clock time). Flow results are cached and shared between
// experiments, exactly as the paper reuses its base layouts.
//
// A Study is safe for concurrent use. Identical configurations are
// deduplicated singleflight-style: concurrent callers of the same config
// block on one flow.Run, while distinct configs proceed in parallel. The
// experiment matrix fans out through RunAll/Pairs over a bounded worker
// pool, and because every flow's randomness derives purely from its config
// (flow.Config.DeriveSeed), parallel execution is bit-identical to serial.
type Study struct {
	Scale float64
	Seed  uint64
	// Workers bounds the number of flows RunAll executes concurrently;
	// 0 means GOMAXPROCS. 1 reproduces the serial driver exactly.
	Workers int
	// IntraWorkers is the per-flow worker budget handed to the parallel
	// stage loops (flow.Config.Workers). 0 splits GOMAXPROCS across the
	// flow pool so pool × intra never oversubscribes the machine. Results
	// are byte-identical at any value.
	IntraWorkers int
	// Runner, when set, replaces flow.Run as the flow executor. The staged
	// engine's Run plugs in here (byte-identical by contract), so an
	// experiment matrix reuses per-stage artifacts across its sweep points
	// instead of only deduplicating whole-flow repeats; tests plug in stubs.
	// Set before first use.
	Runner func(flow.Config) (*flow.Result, error)

	mu       sync.Mutex
	cache    map[string]*flow.Result
	inflight map[string]*inflightRun

	// Per-stage wall-clock totals across every flow this study executed
	// (cache hits and deduplicated waiters excluded) — the profile behind
	// StageReport.
	stageMu      sync.Mutex
	stageTotals  map[string]time.Duration
	stageWorkers map[string]int
	stageOrder   []string
	flowsRun     int
}

// inflightRun is one in-progress flow execution; latecomers for the same key
// wait on done instead of launching a duplicate run (cache stampede fix).
type inflightRun struct {
	done chan struct{}
	res  *flow.Result
	err  error
}

// NewStudy creates a study at the given scale.
func NewStudy(scale float64) *Study {
	if scale <= 0 {
		scale = 1.0
	}
	return &Study{
		Scale:        scale,
		cache:        map[string]*flow.Result{},
		inflight:     map[string]*inflightRun{},
		stageTotals:  map[string]time.Duration{},
		stageWorkers: map[string]int{},
	}
}

// workers resolves the effective pool size.
func (s *Study) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// intraWorkers resolves the per-flow worker budget: the explicit setting,
// or the cores left per pool slot once the flow pool has claimed its share.
func (s *Study) intraWorkers() int {
	if s.IntraWorkers > 0 {
		return s.IntraWorkers
	}
	n := runtime.GOMAXPROCS(0) / s.workers()
	if n < 1 {
		n = 1
	}
	return n
}

// run executes (or retrieves) one flow configuration. The cache key is the
// canonical full-precision flow.Config.Key — every result-affecting field
// participates, so sweep points separated by less than a rounding unit (the
// old %.0f ClockPs key collided Fig 4 points under 1 ps apart) stay
// distinct. The check and the run are bridged by an inflight map: the first
// caller of a key executes, every concurrent caller of the same key waits
// for that single execution. A panicking runner still retires the inflight
// entry: waiters get an error, the panic continues up the executing caller's
// stack, and the next call retries.
func (s *Study) run(cfg flow.Config) (*flow.Result, error) {
	cfg.Scale = s.Scale
	cfg.Seed = s.Seed
	cfg.Workers = s.intraWorkers()
	// Workers is deliberately outside the cache key (flow keeps it
	// //tmi3dvet:nonkey): any budget produces identical bytes, so runs at
	// different worker counts share cache entries.
	key := cfg.Key()

	s.mu.Lock()
	if r, ok := s.cache[key]; ok {
		s.mu.Unlock()
		return r, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-f.done
		return f.res, f.err
	}
	f := &inflightRun{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	runner := s.Runner
	if runner == nil {
		runner = flow.Run
	}
	panicked := true
	defer func() {
		if panicked {
			f.res, f.err = nil, fmt.Errorf("core: flow %s panicked", key)
		}
		s.mu.Lock()
		if f.err == nil {
			s.cache[key] = f.res
		}
		// Errors are delivered to every waiter of this round but not cached:
		// a later call gets a fresh attempt.
		delete(s.inflight, key)
		s.mu.Unlock()
		close(f.done)
	}()
	f.res, f.err = runner(cfg)
	panicked = false

	if f.err == nil {
		s.recordStages(f.res)
	}
	return f.res, f.err
}

// RunAll executes every configuration across a worker pool of s.Workers
// (GOMAXPROCS when zero) and returns results in input order. Duplicate
// configs in cfgs are deduplicated by the inflight map and share one
// execution. On failure the error of the lowest-index failing config is
// returned, so the error is deterministic under any scheduling.
func (s *Study) RunAll(cfgs []flow.Config) ([]*flow.Result, error) {
	res := make([]*flow.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	sem := make(chan struct{}, s.workers())
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res[i], errs[i] = s.run(cfgs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("config %d (%s/%v/%v): %w",
				i, cfgs[i].Circuit, cfgs[i].Node, cfgs[i].Mode, err)
		}
	}
	return res, nil
}

// Pairs runs the iso-performance 2D/T-MI comparison for every circuit at a
// node across the worker pool, returning [i] = {2D, T-MI} in circuit order.
func (s *Study) Pairs(circuitNames []string, node tech.Node) ([][2]*flow.Result, error) {
	cfgs := make([]flow.Config, 0, 2*len(circuitNames))
	for _, name := range circuitNames {
		cfgs = append(cfgs,
			flow.Config{Circuit: name, Node: node, Mode: tech.Mode2D},
			flow.Config{Circuit: name, Node: node, Mode: tech.ModeTMI})
	}
	rs, err := s.RunAll(cfgs)
	if err != nil {
		return nil, err
	}
	pairs := make([][2]*flow.Result, len(circuitNames))
	for i := range pairs {
		pairs[i] = [2]*flow.Result{rs[2*i], rs[2*i+1]}
	}
	return pairs, nil
}

// Pair runs the 2D and T-MI flows of an iso-performance comparison.
func (s *Study) Pair(circuit string, node tech.Node) (d2, d3 *flow.Result, err error) {
	pairs, err := s.Pairs([]string{circuit}, node)
	if err != nil {
		return nil, nil, err
	}
	return pairs[0][0], pairs[0][1], nil
}

// recordStages folds one completed flow's stage profile into the study
// totals.
func (s *Study) recordStages(r *flow.Result) {
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	s.flowsRun++
	for _, st := range r.StageTimes {
		if _, ok := s.stageTotals[st.Stage]; !ok {
			s.stageOrder = append(s.stageOrder, st.Stage)
		}
		s.stageTotals[st.Stage] += st.D
		if st.Workers > s.stageWorkers[st.Stage] {
			s.stageWorkers[st.Stage] = st.Workers
		}
	}
}

// FlowsRun reports how many flows this study actually executed (cache hits
// and deduplicated concurrent callers do not count).
func (s *Study) FlowsRun() int {
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	return s.flowsRun
}

// StageReport renders the aggregate per-stage wall-clock profile of every
// flow the study executed — where the compute went, and which stages
// dominate the remaining serial bottleneck of a parallel run.
func (s *Study) StageReport() string {
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	var total time.Duration
	for _, d := range s.stageTotals {
		total += d
	}
	t := report.New(fmt.Sprintf("Flow stage timing — %d flows executed, %.1f s total flow compute",
		s.flowsRun, total.Seconds()), "stage", "total s", "share", "workers")
	for _, stage := range s.stageOrder {
		d := s.stageTotals[stage]
		share := 0.0
		if total > 0 {
			share = 100 * float64(d) / float64(total)
		}
		w := s.stageWorkers[stage]
		if w < 1 {
			w = 1
		}
		t.Add(stage, report.F(d.Seconds(), 2), report.F(share, 1)+"%", fmt.Sprintf("%d", w))
	}
	return t.String()
}

// pct returns the percentage difference of b over a. A zero baseline has no
// defined percentage: the result is NaN (renderers print "n/a"), except for
// the degenerate zero-over-zero case where nothing changed at all.
func pct(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.NaN()
	}
	return (b - a) / a * 100
}

var _ = power.DefaultActivities // referenced by experiment files
