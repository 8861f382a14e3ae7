package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tmi3d/internal/captable"
	"tmi3d/internal/castore"
	"tmi3d/internal/core"
	"tmi3d/internal/cts"
	"tmi3d/internal/flow"
	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/opt"
	"tmi3d/internal/place"
	"tmi3d/internal/power"
	"tmi3d/internal/rcx"
	"tmi3d/internal/route"
	"tmi3d/internal/sta"
	"tmi3d/internal/stage"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

// The traced suite (--trace 1) is serial where it can be and never runs
// alongside a timed run. Every traced run executes the same four parts, so
// every per-layer metric is measured on every run, each on the workload
// whose path exercises that layer:
//
//  1. set-up with spans around Config.Library and GenerateDesign (library,
//     generate);
//  2. the study-matrix configs replayed through the exported stage bodies in
//     flow.Run's order, with a benchmark-owned flow.Profile, each payload
//     checked against the recorded digest, plus kernel and codec probes on
//     the signed-off design (equiv, lint, synth, place, opt, sta, route,
//     signoff, power, report, codec, runtime), each config also run untraced
//     for the tracing overhead; then one RunAll pass with spans around the
//     Study.Runner (core);
//  3. one clock-sweep pass through a fresh engine (stage, par), with the
//     store read back and replayed afterwards (castore);
//  4. a short ppa-service session with /metrics scraped (serve).

type suite struct {
	o       *options
	tr      *tracer
	res     *outcome
	memo    map[string]string // reference digests by config key
	metrics []metric
}

func (s *suite) add(name, unit string, v float64) {
	s.metrics = append(s.metrics, metric{name, unit, v})
}

func runTraced(o *options) error {
	env := readEnvironment(o.srcRoot)
	fmt.Fprintf(o.out, "tmi3dbench workload=%s seed=%d scale=%g trace=1 (traced suite)\n", o.workload, o.seed, o.scale)
	fmt.Fprintf(o.out, "env %s seed=%d scale=%g\n", env, o.seed, o.scale)
	s := &suite{o: o, tr: newTracer(), res: &outcome{}, memo: map[string]string{}}
	want, err := recordedDigests(o.scale)
	if err != nil {
		return err
	}
	cfgs := matrixConfigs(o.scale, o.seed, 0)
	s.setupSpans(cfgs)
	if err := s.replay(cfgs, want); err != nil {
		return err
	}
	if err := s.pool(cfgs, want); err != nil {
		return err
	}
	if err := s.sweep(); err != nil {
		return err
	}
	if err := s.service(); err != nil {
		return err
	}
	dump := filepath.Join(filepath.Dir(o.workdir), fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	if err := s.tr.write(dump); err != nil {
		return err
	}
	fmt.Fprintf(o.out, "trace %d spans written to %s\n", len(s.tr.spans), dump)

	return finish(o, "layer", s.metrics, nil, s.res)
}

// setupSpans performs the matrix set-up cold, with a span around each
// Config.Library and GenerateDesign call.
func (s *suite) setupSpans(cfgs []flow.Config) {
	s.tr.newTrace()
	root := s.tr.begin("setup")
	flow.LibraryCheck()
	var lib, gen float64
	for _, c := range cfgs {
		id := s.tr.begin("library")
		if _, _, err := c.Library(); err != nil {
			s.res.fail("%s: library: %v", configName(c), err)
		}
		s.tr.end(id)
		lib += s.tr.spans[id].dur()
		id = s.tr.begin("generate")
		if _, _, err := c.GenerateDesign(); err != nil {
			s.res.fail("%s: generate: %v", configName(c), err)
		}
		s.tr.end(id)
		gen += s.tr.spans[id].dur()
	}
	s.tr.end(root)
	s.add("library.s", "s", lib)
	s.add("generate.s", "s", gen)
}

// profileTotals reads a profile's accumulated durations by stage name.
func profileTotals(p *flow.Profile) map[string]time.Duration {
	m := map[string]time.Duration{}
	for _, st := range p.Times() {
		m[st.Stage] = st.D
	}
	return m
}

// gates wraps a stage-body call in a span and adds the gate time the
// profile recorded during it as derived child spans.
func (s *suite) gated(name string, prof *flow.Profile, fn func()) {
	before := profileTotals(prof)
	id := s.tr.begin(name)
	fn()
	s.tr.end(id)
	after := profileTotals(prof)
	s.tr.derive(id, []string{"equiv", "lint"}, []time.Duration{
		after["equiv"] - before["equiv"], after["lint"] - before["lint"],
	})
}

// replayed is what one traced replay leaves for the probes.
type replayed struct {
	d    *netlist.Design
	pl   *place.Placement
	env  sta.Env
	res  *flow.Result
	root int
}

// replayOne runs cfg through the stage bodies in flow.Run's order under
// spans, returning the canonical payload.
func (s *suite) replayOne(cfg flow.Config, prof *flow.Profile) (*replayed, []byte, error) {
	tr := s.tr
	tr.newTrace()
	out := &replayed{root: tr.begin("flow")}
	defer func() {
		if len(tr.stack) > 0 && tr.stack[0] == out.root {
			for len(tr.stack) > 0 {
				tr.end(tr.stack[len(tr.stack)-1])
			}
		}
	}()
	var err error
	fail := func(stage string, e error) error { return fmt.Errorf("%s: %s: %w", configName(cfg), stage, e) }

	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	seed := cfg.DeriveSeed()
	workers := max(cfg.Workers, 1)
	var (
		t     *tech.Technology
		lib   *liberty.Library
		d     *netlist.Design
		calib float64
	)
	tr.do("library", func() { t, lib, err = cfg.Library() })
	if err != nil {
		return nil, nil, fail("library", err)
	}
	tr.do("generate", func() { d, calib, err = cfg.GenerateDesign() })
	if err != nil {
		return nil, nil, fail("generate", err)
	}
	var model *wlm.Model
	var util float64
	tr.do("wlm", func() { model, util = cfg.BuildWLM(d, lib) })
	var gs *flow.GateSet
	tr.do("gates", func() { gs, err = cfg.Gates(lib, seed, prof) })
	if err != nil {
		return nil, nil, fail("gates", err)
	}
	var sres *synth.Result
	var ref *netlist.Design
	s.gated("synth", prof, func() { sres, ref, err = flow.RunSynth(d, lib, model, gs, prof) })
	if err != nil {
		return nil, nil, fail("synth", err)
	}
	d = sres.Design
	var pl *place.Placement
	tr.do("place", func() { pl, err = flow.RunPlace(d, t, lib, util, seed, workers, prof) })
	if err != nil {
		return nil, nil, fail("place", err)
	}
	clock := cfg.SweepClockPs(d.TargetClockPs, calib)
	d.TargetClockPs = clock
	var tb *captable.Table
	tr.do("captable", func() { tb = captable.Build(t, captable.Options{ResistivityScale: cfg.ResistivityScale}) })
	areaBudget := pl.Die.Area() * 0.95
	var preStats *opt.Stats
	s.gated("opt.pre", prof, func() {
		preStats, ref, err = flow.ClosePreRoute(d, pl, tb, lib, areaBudget, ref, workers, gs, prof)
	})
	if err != nil {
		return nil, nil, fail("opt.pre", err)
	}
	var ex *rcx.Extraction
	tr.do("route", func() { _, ex, err = flow.RunRoute(pl, t, tb, workers, prof) })
	if err != nil {
		return nil, nil, fail("route", err)
	}
	var postStats *opt.Stats
	tr.do("opt.post", func() {
		postStats, err = flow.ClosePostRoute(d, pl, tb, ex, lib, areaBudget, preStats, workers, prof)
	})
	if err != nil {
		return nil, nil, fail("opt.post", err)
	}
	var rt *route.Result
	var timing *sta.Result
	var finalWire func(int) sta.WireRC
	tr.do("signoff", func() {
		rt, timing, finalWire, err = flow.RunSignoff(d, pl, tb, t, lib, areaBudget, postStats, workers, prof)
	})
	if err != nil {
		return nil, nil, fail("signoff", err)
	}
	tr.do("lint", func() { err = gs.Lint("post-route", d) })
	if err != nil {
		return nil, nil, fail("lint", err)
	}
	tr.do("equiv", func() { err = gs.Equiv("post-route vs post-place", ref, d) })
	if err != nil {
		return nil, nil, fail("equiv", err)
	}
	var pow *power.Report
	var clk *cts.Result
	tr.do("power", func() {
		pow, clk, err = flow.RunPower(d, lib, finalWire, cfg.Activities, timing, clock, pl, tb, prof)
	})
	if err != nil {
		return nil, nil, fail("power", err)
	}
	var res *flow.Result
	tr.do("report.assemble", func() {
		lintReports, equivReports := gs.Reports()
		res = flow.AssembleResult(cfg, lib, flow.ReportInputs{
			Design: d, Placement: pl, Route: rt, Timing: timing, ClockPs: clock,
			Power: pow, ClockTree: clk, OptStats: postStats, SynthStats: sres.Stats,
			LintReports: lintReports, EquivReports: equivReports,
			LibCheck: gs.LibCheck(), StageTimes: prof.Times(),
		})
	})
	var payload []byte
	tr.do("report.encode", func() { payload, err = flow.EncodeResult(res) })
	if err != nil {
		return nil, nil, fail("report", err)
	}
	tr.end(out.root)
	out.d, out.pl, out.res = d, pl, res
	out.env = sta.Env{Lib: lib, Wire: finalWire, Workers: workers}
	return out, payload, nil
}

// spanSelf sums the self times of the spans named name.
func spanSelf(spans []span, self []float64, name string) float64 {
	total := 0.0
	for i, sp := range spans {
		if sp.Name == name {
			total += self[i]
		}
	}
	return total
}

// replay runs every matrix config once traced and once untraced (in
// alternating order), checks both payloads against the recorded digests,
// probes the kernels and codecs on each signed-off design, and reports the
// kernel, stage, report, codec and runtime metrics.
func (s *suite) replay(cfgs []flow.Config, want map[string]string) error {
	tr := s.tr
	var traced, untraced, ratios []float64
	var rc resultCounts
	var equivBusy, lintBusy time.Duration
	var cells, overflow int
	var designBytes int
	probe := map[string]float64{}
	rootsFrom := len(tr.spans)
	var roots []int
	flowName := map[int]string{} // trace ID → config
	for i, cfg := range cfgs {
		cfg.Workers = 1
		plainD := 0.0 // untraced wall, 0 if that run failed
		plain := func() {
			t0 := time.Now()
			r, err := flow.Run(cfg)
			d := time.Since(t0).Seconds()
			s.res.attempted++
			if err != nil {
				s.res.fail("untraced %s: %v", configName(cfg), err)
				return
			}
			payload, err := flow.EncodeResult(r)
			if err != nil || digest(payload) != want[configName(cfg)] {
				s.res.fail("untraced %s: result digest differs from the recorded one", configName(cfg))
				return
			}
			plainD = d
			untraced = append(untraced, d)
		}
		// Alternate which run goes first, so neither side always runs on
		// the other's leftover heap.
		if i%2 == 0 {
			plain()
		}
		prof := flow.NewProfile()
		rp, payload, err := s.replayOne(cfg, prof)
		s.res.attempted++
		if err != nil {
			s.res.fail("traced %v", err)
		} else if s.o.corrupt && i == 0 || digest(payload) != want[configName(cfg)] {
			s.res.fail("traced %s: result digest differs from the recorded one", configName(cfg))
		}
		if i%2 == 1 {
			plain()
		}
		if err != nil {
			continue
		}
		roots = append(roots, rp.root)
		flowName[tr.spans[rp.root].Trace] = configName(cfg)
		traced = append(traced, tr.spans[rp.root].dur())
		if plainD > 0 {
			ratios = append(ratios, tr.spans[rp.root].dur()/plainD)
		}
		rc.add(rp.res, payload)
		pt := profileTotals(prof)
		equivBusy += pt["equiv"]
		lintBusy += pt["lint"]
		cells += rp.res.SynthStats.NumCells
		overflow += rp.res.Overflow

		// Kernel and codec probes on the signed-off design, in their own
		// trace so they stay out of the flow's accounting.
		tr.newTrace()
		pr := tr.begin("probe")
		tr.do("sta.analyze", func() {
			if _, err := sta.Analyze(rp.d, rp.env); err != nil {
				s.res.fail("%s: sta probe: %v", configName(cfg), err)
			}
		})
		tr.do("sta.levelize", func() {
			if _, err := sta.Levelize(rp.d); err != nil {
				s.res.fail("%s: levelize probe: %v", configName(cfg), err)
			}
		})
		var db, pb []byte
		tr.do("codec.design_encode", func() { db, err = json.Marshal(rp.d) })
		if err != nil {
			return err
		}
		designBytes += len(db)
		tr.do("codec.design_decode", func() { err = json.Unmarshal(db, new(netlist.Design)) })
		if err != nil {
			return err
		}
		tr.do("codec.placement_encode", func() { pb, err = json.Marshal(rp.pl.Snapshot()) })
		if err != nil {
			return err
		}
		tr.do("codec.placement_decode", func() { err = json.Unmarshal(pb, new(place.Snapshot)) })
		if err != nil {
			return err
		}
		tr.end(pr)
	}
	spans := tr.spans[rootsFrom:]
	self := selfTimes(spans)
	for i, sp := range spans {
		if strings.HasPrefix(sp.Name, "sta.") || strings.HasPrefix(sp.Name, "codec.") {
			probe[sp.Name] += self[i]
		}
	}
	var rootDur, rootSelf, gcCPU, cpu float64
	var alloc, cycles uint64
	for _, id := range roots {
		sp := tr.spans[id]
		rootDur += sp.dur()
		rootSelf += self[id-rootsFrom]
		gcCPU += sp.GCCPU
		cpu += sp.CPU
		alloc += sp.AllocBytes
		cycles += sp.GCCycles
	}
	for _, id := range roots {
		sp := tr.spans[id]
		fmt.Fprintf(s.o.out, "detail trace %d %s wall_s=%.6g unspanned_s=%.6g\n",
			sp.Trace, flowName[sp.Trace], sp.dur(), self[id-rootsFrom])
	}
	n := float64(max(len(roots), 1))
	tp50, up50 := median(traced), median(untraced)
	fmt.Fprintf(s.o.out, "detail replay configs=%d traced_p50_s=%.6g untraced_p50_s=%.6g\n", len(roots), tp50, up50)

	s.add("equiv.busy_s", "s", equivBusy.Seconds())
	s.add("equiv.points", "count", float64(rc.equivPoints))
	s.add("equiv.by_sat", "count", float64(rc.equivBySAT))
	s.add("equiv.structural_ratio", "ratio", float64(rc.equivStructural)/float64(max(rc.equivPoints, 1)))
	s.add("lint.busy_s", "s", lintBusy.Seconds())
	s.add("lint.diagnostics", "count", float64(rc.lintDiags))
	s.add("synth.self_s", "s", spanSelf(spans, self, "synth"))
	s.add("synth.cells", "count", float64(cells))
	s.add("place.self_s", "s", spanSelf(spans, self, "place"))
	s.add("opt.pre_self_s", "s", spanSelf(spans, self, "opt.pre"))
	s.add("opt.post_self_s", "s", spanSelf(spans, self, "opt.post"))
	s.add("opt.rounds", "count", float64(rc.optRounds))
	s.add("opt.buffers_added", "count", float64(rc.buffersAdded))
	s.add("sta.analyze_s", "s", probe["sta.analyze"])
	s.add("sta.levelize_s", "s", probe["sta.levelize"])
	s.add("route.self_s", "s", spanSelf(spans, self, "route"))
	s.add("route.overflow", "count", float64(overflow))
	s.add("signoff.self_s", "s", spanSelf(spans, self, "signoff"))
	s.add("power.self_s", "s", spanSelf(spans, self, "power"))
	s.add("report.assemble_s", "s", spanSelf(spans, self, "report.assemble"))
	s.add("report.encode_s", "s", spanSelf(spans, self, "report.encode"))
	s.add("report.bytes", "bytes", float64(rc.reportBytes))
	s.add("codec.design_encode_s", "s", probe["codec.design_encode"])
	s.add("codec.design_decode_s", "s", probe["codec.design_decode"])
	s.add("codec.design_bytes", "bytes", float64(designBytes))
	s.add("codec.placement_encode_s", "s", probe["codec.placement_encode"])
	s.add("codec.placement_decode_s", "s", probe["codec.placement_decode"])
	s.add("runtime.gc_cpu_frac", "ratio", gcCPU/max(cpu, 1e-9))
	s.add("runtime.alloc_mb_per_config", "MiB", float64(alloc)/n/(1<<20))
	s.add("runtime.gc_cycles_per_config", "count", float64(cycles)/n)
	s.add("trace.remainder_frac", "ratio", rootSelf/max(rootDur, 1e-9))
	// Each config's traced wall over its untraced wall, median over configs:
	// pairing cancels the spread between circuits that a ratio of the two
	// p50s would carry.
	s.add("trace.overhead_frac", "ratio", median(ratios)-1)
	return nil
}

// pool runs one matrix pass through core.Study.RunAll (nproc flows in
// flight, one intra-flow worker each) with spans around every Study.Runner
// call, and reports how busy the pool was.
func (s *suite) pool(cfgs []flow.Config, want map[string]string) error {
	study := core.NewStudy(s.o.scale)
	study.Workers = nproc()
	study.IntraWorkers = 1
	type call struct{ start, end float64 }
	var mu sync.Mutex
	var calls []call
	study.Runner = func(cfg flow.Config) (*flow.Result, error) {
		a := s.tr.now()
		r, err := flow.Run(cfg)
		b := s.tr.now()
		mu.Lock()
		calls = append(calls, call{a, b})
		mu.Unlock()
		return r, err
	}
	t0 := s.tr.now()
	results, err := study.RunAll(cfgs)
	t1 := s.tr.now()
	s.res.attempted += len(cfgs)
	if err != nil {
		for range cfgs {
			s.res.fail("pool: %v", err)
		}
	} else {
		for i, r := range results {
			payload, err := flow.EncodeResult(r)
			if err != nil || digest(payload) != want[configName(cfgs[i])] {
				s.res.fail("pool %s: result digest differs from the recorded one", configName(cfgs[i]))
			}
		}
	}
	trace := s.tr.newTrace()
	root := len(s.tr.spans)
	s.tr.spans = append(s.tr.spans, span{Name: "pool", Trace: trace, ID: root, Parent: -1, Start: t0, End: t1})
	busy, longest := 0.0, 0.0
	for _, c := range calls {
		s.tr.spans = append(s.tr.spans, span{Name: "core.flow", Trace: trace, ID: len(s.tr.spans), Parent: root, Start: c.start, End: c.end})
		busy += c.end - c.start
		longest = max(longest, c.end-c.start)
	}
	s.add("core.pool_busy_frac", "ratio", busy/((t1-t0)*float64(study.Workers)))
	s.add("core.flow_s_max", "s", longest)
	return nil
}

// parStages are the flow stages whose loops run under par.For (the
// flow.ParLoops manifest's stages).
var parStages = []string{"place", "opt", "route", "sta"}

// sweep runs one clock-sweep pass through a fresh engine with Workers =
// nproc, one span per point with the returned StageTimes as derived
// children (the span's self time is the engine's own overhead), then reads
// every store entry back and replays it into a scratch store.
func (s *suite) sweep() error {
	tr := s.tr
	pts := sweepConfigs(s.o.seed, s.o.scale)
	dir := filepath.Join(s.o.workdir, "traced-sweep")
	eng, err := stage.New(dir)
	if err != nil {
		return err
	}
	refs, err := monolithic(pts, s.memo)
	if err != nil {
		return err
	}
	var body, overhead float64
	parD := map[bool]time.Duration{}
	workers := map[string]int{}
	for i, p := range pts {
		cfg := p
		cfg.Workers = nproc()
		tr.newTrace()
		id := tr.begin("stage.point")
		r, _, err := eng.RunStats(cfg)
		tr.end(id)
		s.res.attempted++
		if err != nil {
			s.res.fail("sweep %s: %v", configName(p), err)
			continue
		}
		payload, err := flow.EncodeResult(r)
		if err != nil || digest(payload) != refs[i] {
			s.res.fail("sweep %s: staged payload differs from monolithic flow.Run", configName(p))
		}
		names := make([]string, len(r.StageTimes))
		ds := make([]time.Duration, len(r.StageTimes))
		pointBody := 0.0
		for j, st := range r.StageTimes {
			names[j], ds[j] = "stage."+st.Stage, st.D
			pointBody += st.D.Seconds()
			parD[st.Workers > 1] += st.D
			workers[st.Stage] = max(workers[st.Stage], st.Workers)
		}
		tr.derive(id, names, ds)
		body += pointBody
		overhead += tr.spans[id].dur() - pointBody
	}
	n := float64(len(pts))
	sc, err := stageCounts(eng, len(pts))
	if err != nil {
		return err
	}
	var hits, lookups uint64
	for _, c := range eng.Counters() {
		hits += c.MemHits + c.DiskHits
		lookups += c.MemHits + c.DiskHits + c.Misses
	}
	s.add("stage.execs_per_point", "count", sc[0].value)
	s.add("stage.upstream_execs_per_point", "count", sc[1].value)
	s.add("stage.hit_ratio", "ratio", float64(hits)/float64(max(lookups, 1)))
	s.add("stage.body_s", "s", body/n)
	s.add("stage.overhead_s", "s", overhead/n)
	for _, st := range parStages {
		s.add("par.workers."+st, "count", float64(workers[st]))
	}
	s.add("par.parallel_share", "ratio", parD[true].Seconds()/max((parD[true]+parD[false]).Seconds(), 1e-9))
	return s.castoreProbe(eng.Store(), dir)
}

// castoreProbe reads every entry of st back through Get, then replays the
// payloads through Put into a scratch store, timing each call.
func (s *suite) castoreProbe(st *castore.Store, dir string) error {
	keys, err := storeKeys(dir)
	if err != nil {
		return err
	}
	scratch, err := castore.Open(filepath.Join(s.o.workdir, "traced-castore-replay"))
	if err != nil {
		return err
	}
	tr := s.tr
	tr.newTrace()
	root := tr.begin("castore")
	var getS, putS float64
	total := 0
	for _, k := range keys {
		var data []byte
		var ok bool
		id := tr.begin("castore.get")
		data, ok, err = st.Get(k)
		tr.end(id)
		getS += tr.spans[id].dur()
		if err != nil || !ok {
			s.res.fail("castore: entry %q did not read back (%v)", k, err)
			continue
		}
		total += len(data)
		id = tr.begin("castore.put")
		err = scratch.Put(k, data)
		tr.end(id)
		putS += tr.spans[id].dur()
		if err != nil {
			return err
		}
	}
	tr.end(root)
	s.add("castore.entries", "count", float64(len(keys)))
	s.add("castore.bytes", "bytes", float64(total))
	s.add("castore.get_s", "s", getS)
	s.add("castore.put_s", "s", putS)
	return nil
}

// storeKeys lists the keys of a castore directory's live entries, from each
// entry's header line.
func storeKeys(dir string) ([]string, error) {
	var keys []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "quarantine" {
				return fs.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".entry" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		line, err := bufio.NewReader(f).ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		var hdr struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(line, &hdr); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		keys = append(keys, hdr.Key)
		return nil
	})
	sort.Strings(keys)
	return keys, err
}

// tracedSession is the traced suite's daemon session length: long enough
// for every key's first request and then thousands of LRU hits.
const tracedSession = 5.0

// service primes a fresh stage store, then drives a fresh daemon for
// tracedSession seconds with /metrics scraped, and classifies every request
// by the tier that served it.
func (s *suite) service() error {
	stageDir := filepath.Join(s.o.workdir, "traced-stages")
	keys, _, err := serviceSetup(s.o, stageDir)
	if err != nil {
		return err
	}
	sess, err := runSession(s.o, keys, stageDir, tracedSession, true)
	if err != nil {
		return err
	}
	if err := checkSession(s.res, sess, keys, s.memo); err != nil {
		return err
	}
	tr := s.tr
	tr.newTrace()
	var lru, disk, run []float64
	at := 0.0
	for _, r := range sess.requests {
		class := "serve.other"
		switch {
		case r.cache == "lru":
			class = "serve.lru_hit"
			lru = append(lru, r.latency)
		case r.cache == "run" && r.stageRuns == 0:
			class = "serve.disk_hit"
			disk = append(disk, r.latency)
		case r.cache == "run":
			class = "serve.run"
			run = append(run, r.latency)
		}
		// Requests are recorded per client; their spans keep their lengths
		// and are laid end to end on one nominal timeline.
		tr.spans = append(tr.spans, span{Name: class, Trace: tr.trace, ID: len(tr.spans), Parent: -1,
			Start: at, End: at + r.latency, Derived: true})
		at += r.latency
	}
	first, last := scrapeValues(sess.scrapes[0]), scrapeValues(sess.scrapes[len(sess.scrapes)-1])
	delta := func(name string) float64 { return last[name] - first[name] }
	depth := 0.0
	for _, sc := range sess.scrapes {
		depth = max(depth, scrapeValues(sc)["tmi3d_queue_depth"])
	}
	n := float64(max(len(sess.requests), 1))
	s.add("serve.lru_hit_p50_s", "s", median(lru))
	s.add("serve.disk_hit_p50_s", "s", median(disk))
	s.add("serve.run_p50_s", "s", median(run))
	s.add("serve.hit_ratio", "ratio", float64(len(lru))/n)
	s.add("serve.join_frac", "ratio", delta("tmi3d_singleflight_joins_total")/n)
	s.add("serve.reject_frac", "ratio", delta("tmi3d_queue_rejected_total")/n)
	s.add("serve.queue_depth_max", "count", depth)
	fmt.Fprintf(s.o.out, "detail service requests=%d lru=%d disk=%d run=%d scrapes=%d\n",
		len(sess.requests), len(lru), len(disk), len(run), len(sess.scrapes))
	return nil
}

// scrapeValues sums a Prometheus text exposition's samples by metric name
// (all label sets together).
func scrapeValues(text string) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		m[name] += v
	}
	return m
}
