package core

// Tests for the parallel experiment engine: cache-key precision, stampede
// (singleflight) dedup, error and panic release — all on the stage engine the
// study runs on — deterministic fan-out, and the serial/parallel bit-identity
// contract.

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"tmi3d/internal/flow"
	"tmi3d/internal/report"
	"tmi3d/internal/stage"
	"tmi3d/internal/tech"
)

// engineStudy returns a study on the default runner over an engine the test
// can read the counters of, at the smallest scale the golden tests pin.
func engineStudy(t *testing.T) (*Study, *stage.Engine) {
	t.Helper()
	e, err := stage.New("")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy(0.05)
	s.Runner = EngineRunner(e)
	return s, e
}

// reportExecs counts the report bodies the engine ran: one per flow executed.
func reportExecs(e *stage.Engine) uint64 { return e.Counters()["report"].Executions }

func payload(t *testing.T, r *flow.Result) []byte {
	t.Helper()
	data, err := flow.EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Regression for the %.0f cache-key collision: two sweep points 0.4 ps
// apart must execute as two distinct flows and return distinct results, and
// an exact repeat must execute nothing.
func TestRunCacheKeyCollision(t *testing.T) {
	s, e := engineStudy(t)
	a, err := s.run(flow.Config{Circuit: "FPU", Node: tech.N45, Mode: tech.Mode2D, ClockPs: 1800.0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.run(flow.Config{Circuit: "FPU", Node: tech.N45, Mode: tech.Mode2D, ClockPs: 1800.4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Config.ClockPs == b.Config.ClockPs {
		t.Fatalf("wrong layout served: both results claim ClockPs %v", a.Config.ClockPs)
	}
	if n := reportExecs(e); n != 2 {
		t.Fatalf("report executed %d times, want 2", n)
	}
	c, err := s.run(flow.Config{Circuit: "FPU", Node: tech.N45, Mode: tech.Mode2D, ClockPs: 1800.0})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload(t, c), payload(t, a)) {
		t.Error("exact repeat served a different payload")
	}
	if n := reportExecs(e); n != 2 {
		t.Errorf("report executed %d times after repeat, want 2", n)
	}
	if s.FlowsRun() != 2 {
		t.Errorf("FlowsRun = %d, want 2 (the repeat executed nothing)", s.FlowsRun())
	}
}

// Regression for the check-then-run stampede: N concurrent callers of one
// config must trigger exactly one flow execution, and every caller gets the
// same payload.
func TestRunStampedeSingleflight(t *testing.T) {
	s, e := engineStudy(t)
	const goroutines = 32
	results := make([]*flow.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = s.run(flow.Config{Circuit: "FPU", Node: tech.N45, Mode: tech.ModeTMI})
		}(g)
	}
	wg.Wait()
	if n := reportExecs(e); n != 1 {
		t.Fatalf("report executed %d times for one config, want exactly 1", n)
	}
	if s.FlowsRun() != 1 {
		t.Errorf("FlowsRun = %d, want 1", s.FlowsRun())
	}
	want := payload(t, results[0])
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !bytes.Equal(payload(t, results[g]), want) {
			t.Fatalf("goroutine %d received a different payload", g)
		}
	}
}

// A failed config is not cached: the next call executes it again.
func TestRunErrorNotCached(t *testing.T) {
	s, e := engineStudy(t)
	cfg := flow.Config{Circuit: "NOSUCH", Node: tech.N45, Mode: tech.Mode2D}
	for attempt := uint64(1); attempt <= 2; attempt++ {
		if _, err := s.run(cfg); err == nil {
			t.Fatalf("attempt %d: an unknown circuit ran to completion", attempt)
		}
		if n := reportExecs(e); n != attempt {
			t.Fatalf("attempt %d: report executed %d times, want %d (errors are retried)", attempt, n, attempt)
		}
	}
	if s.FlowsRun() != 0 {
		t.Errorf("FlowsRun = %d, want 0", s.FlowsRun())
	}
}

// A panicking flow must not poison its config: the panic reaches the caller
// that executed it, a concurrent waiter gets an error, and the next call runs
// the flow again instead of blocking forever on a dead inflight entry.
func TestRunPanicReleasesKey(t *testing.T) {
	s, e := engineStudy(t)
	started := make(chan struct{})
	release := make(chan struct{})
	var gate sync.Once
	// Hold the first report execution inside the engine's inflight window,
	// before its body runs, until the waiter has joined it.
	e.OnEvent(func(stage, event string) {
		if stage == "report" && event == "execute" {
			gate.Do(func() {
				close(started)
				<-release
			})
		}
	})
	cfg := flow.Config{Circuit: "FPU", Node: tech.N45, Mode: tech.Mode(99)} // the library stage panics
	call := func() <-chan error {
		out := make(chan error, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					out <- fmt.Errorf("panic: %v", p)
				}
			}()
			_, err := s.run(cfg)
			out <- err
		}()
		return out
	}
	wait := func(what string, out <-chan error) error {
		t.Helper()
		select {
		case err := <-out:
			return err
		case <-time.After(10 * time.Second):
			t.Fatalf("%s blocked on the panicked config", what)
			return nil
		}
	}
	executor := call()
	<-started
	waiter := call()
	// Give the waiter time to join the inflight report before the body
	// panics. Arriving after the cleanup instead, it retries and panics
	// itself; either way it must not block.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := wait("executing caller", executor); err == nil || !strings.HasPrefix(err.Error(), "panic: ") {
		t.Fatalf("executing caller: %v, want the stage's panic", err)
	}
	if err := wait("waiter", waiter); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("waiter: %v, want a panicked error or a retried panic", err)
	}
	before := reportExecs(e)
	if err := wait("retry", call()); err == nil || !strings.HasPrefix(err.Error(), "panic: ") {
		t.Fatalf("retry after panic: %v, want the stage's panic again", err)
	}
	if n := reportExecs(e); n != before+1 {
		t.Errorf("retry executed the report %d times, want 1", n-before)
	}
}

// RunAll preserves input order, runs repeated configs once, and returns
// identical results at any worker count.
func TestRunAllDeterministicOrder(t *testing.T) {
	mk := func(workers int) ([]*flow.Result, uint64) {
		s, e := engineStudy(t)
		s.Workers = workers
		var cfgs []flow.Config
		for i := 0; i < 12; i++ {
			cfgs = append(cfgs, flow.Config{Circuit: "FPU", Node: tech.N45, ClockPs: float64(1800 + 50*(i%6))})
		}
		rs, err := s.RunAll(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return rs, reportExecs(e)
	}
	serial, nSerial := mk(1)
	parallel, nParallel := mk(8)
	if nSerial != 6 || nParallel != 6 {
		t.Errorf("report executions serial=%d parallel=%d, want 6 each (dedup)", nSerial, nParallel)
	}
	for i := range serial {
		if !bytes.Equal(payload(t, serial[i]), payload(t, parallel[i])) {
			t.Fatalf("result %d differs between -j 1 and -j 8", i)
		}
		if serial[i].Config.ClockPs != float64(1800+50*(i%6)) {
			t.Fatalf("result %d out of input order", i)
		}
	}
}

// RunAll reports the error of the lowest-index failing config regardless of
// scheduling, so parallel failures are reproducible.
func TestRunAllDeterministicError(t *testing.T) {
	// A stub runner: fan-out semantics need no multi-second flows.
	s := NewStudy(0.1)
	s.Runner = func(cfg flow.Config) (*flow.Result, error) {
		if cfg.ClockPs == 1002 || cfg.ClockPs == 1005 {
			return nil, fmt.Errorf("boom at %v", cfg.ClockPs)
		}
		return &flow.Result{Config: cfg}, nil
	}
	s.Workers = 8
	var cfgs []flow.Config
	for i := 0; i < 8; i++ {
		cfgs = append(cfgs, flow.Config{Circuit: "FPU", Node: tech.N45, ClockPs: float64(1000 + i)})
	}
	for trial := 0; trial < 4; trial++ {
		_, err := s.RunAll(cfgs)
		if err == nil || !strings.Contains(err.Error(), "boom at 1002") {
			t.Fatalf("trial %d: error %v, want the lowest-index failure (1002)", trial, err)
		}
	}
}

// The serial/parallel bit-identity contract on real flows: the same pair run
// through a -j 1 study and a -j 4 study must produce identical numbers. The
// parallel study also turns on the intra-flow worker fleet, so this covers
// both axes of parallelism — across flows and inside each flow's stage loops.
func TestParallelMatchesSerialRealFlows(t *testing.T) {
	cfgs := []flow.Config{
		{Circuit: "FPU", Node: tech.N45, Mode: tech.Mode2D},
		{Circuit: "FPU", Node: tech.N45, Mode: tech.ModeTMI},
	}
	serial := NewStudy(0.1)
	serial.Workers = 1
	serial.IntraWorkers = 1
	parallel := NewStudy(0.1)
	parallel.Workers = 4
	parallel.IntraWorkers = 3

	rsSerial, err := serial.RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	rsParallel, err := parallel.RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		a, b := rsSerial[i], rsParallel[i]
		if a.Power.Total != b.Power.Total || a.TotalWL != b.TotalWL ||
			a.WNS != b.WNS || a.Footprint != b.Footprint ||
			a.NumCells != b.NumCells || a.NumBuffers != b.NumBuffers {
			t.Errorf("config %d: serial and parallel results differ:\n"+
				"serial   power=%v wl=%v wns=%v fp=%v cells=%d buf=%d\n"+
				"parallel power=%v wl=%v wns=%v fp=%v cells=%d buf=%d",
				i, a.Power.Total, a.TotalWL, a.WNS, a.Footprint, a.NumCells, a.NumBuffers,
				b.Power.Total, b.TotalWL, b.WNS, b.Footprint, b.NumCells, b.NumBuffers)
		}
	}
	if serial.FlowsRun() != 2 || parallel.FlowsRun() != 2 {
		t.Errorf("flows executed serial=%d parallel=%d, want 2 each", serial.FlowsRun(), parallel.FlowsRun())
	}
	if !strings.Contains(serial.StageReport(), "synth") {
		t.Error("stage report missing synth stage")
	}
}

// pct must not fabricate a 0% delta over a zero baseline; renderers print
// "n/a" for the undefined case.
func TestPctZeroBaseline(t *testing.T) {
	if !math.IsNaN(pct(0, 5)) {
		t.Errorf("pct(0, 5) = %v, want NaN", pct(0, 5))
	}
	if pct(0, 0) != 0 {
		t.Errorf("pct(0, 0) = %v, want 0", pct(0, 0))
	}
	if pct(10, 5) != -50 {
		t.Errorf("pct(10, 5) = %v, want -50", pct(10, 5))
	}
	if got := report.Pct(pct(0, 5)); got != "n/a" {
		t.Errorf("rendered zero-baseline delta %q, want n/a", got)
	}
	if got := report.F(math.NaN(), 2); got != "n/a" {
		t.Errorf("report.F(NaN) = %q, want n/a", got)
	}
}
