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
	"tmi3d/internal/report"
	"tmi3d/internal/stage"
	"tmi3d/internal/tech"
)

// Study runs the paper's experiments at a chosen circuit scale (1.0 = the
// paper's full benchmark sizes; smaller scales keep every relationship while
// trimming wall-clock time). Flows run through one memory-only stage engine,
// whose cache shares them between experiments, exactly as the paper reuses its
// base layouts: a repeated config is served its report, a sweep point re-runs
// only the stages its change dirties.
//
// A Study is safe for concurrent use: concurrent callers of one config wait
// on the engine's single execution of it, while distinct configs proceed in
// parallel. The experiment matrix fans out through RunAll/Pairs over a
// bounded worker pool, and because every flow's randomness derives purely
// from its config (flow.Config.DeriveSeed), parallel execution is
// bit-identical to serial.
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
	// Runner is the flow executor. NewStudy sets it to EngineRunner over a
	// memory-only engine; the daemon plugs in its own engine, benchmarks and
	// tests plug in flow.Run or stubs. Any runner must return flow.Run's
	// payload for the config. Set before first use.
	Runner func(flow.Config) (*flow.Result, error)

	// Per-stage wall-clock totals across every run that executed a stage
	// body (runs served whole from the cache excluded) — the profile behind
	// StageReport.
	stageMu      sync.Mutex
	stageTotals  map[string]time.Duration
	stageWorkers map[string]int
	stageOrder   []string
	flowsRun     int
}

// NewStudy creates a study at the given scale.
func NewStudy(scale float64) *Study {
	if scale <= 0 {
		scale = 1.0
	}
	e, _ := stage.New("") // no store: cannot fail
	return &Study{
		Scale:        scale,
		Runner:       EngineRunner(e),
		stageTotals:  map[string]time.Duration{},
		stageWorkers: map[string]int{},
	}
}

// EngineRunner is the Study.Runner over a stage engine: the engine's report
// artifact for the config, decoded, with the run's stage profile attached.
// Its results carry no Design or Placement.
func EngineRunner(e *stage.Engine) func(flow.Config) (*flow.Result, error) {
	return func(cfg flow.Config) (*flow.Result, error) {
		data, stats, err := e.Report(cfg)
		if err != nil {
			return nil, err
		}
		res, err := flow.DecodeResult(data)
		if err != nil {
			return nil, err
		}
		res.StageTimes = stats.StageTimes
		return res, nil
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

// run executes one flow configuration at the study's scale, seed and worker
// budget. Workers is never a key field (flow.KeyFields): any budget produces
// identical bytes, so runs at different worker counts share cache entries.
func (s *Study) run(cfg flow.Config) (*flow.Result, error) {
	cfg.Scale = s.Scale
	cfg.Seed = s.Seed
	cfg.Workers = s.intraWorkers()
	res, err := s.Runner(cfg)
	if err == nil && len(res.StageTimes) > 0 {
		s.recordStages(res)
	}
	return res, err
}

// RunAll executes every configuration across a worker pool of s.Workers
// (GOMAXPROCS when zero) and returns results in input order. Duplicate
// configs in cfgs share one execution through the runner's engine. On
// failure the error of the lowest-index failing config is returned, so the
// error is deterministic under any scheduling.
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

// recordStages folds the stage profile of one run that executed stage bodies
// into the study totals.
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

// FlowsRun reports how many runs executed at least one stage body: runs
// served whole from the cache, concurrent waiters included, do not count.
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
