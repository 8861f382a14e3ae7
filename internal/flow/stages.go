package flow

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"tmi3d/internal/captable"
	"tmi3d/internal/circuits"
	"tmi3d/internal/cts"
	"tmi3d/internal/equiv"
	"tmi3d/internal/liberty"
	"tmi3d/internal/lint"
	"tmi3d/internal/netlist"
	"tmi3d/internal/opt"
	"tmi3d/internal/place"
	"tmi3d/internal/power"
	"tmi3d/internal/rcx"
	"tmi3d/internal/route"
	"tmi3d/internal/sta"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

// This file holds the stage helpers the node functions (nodes.go) are built
// from. They mutate the design and placement they are given; the nodes own the
// cloning.

// Normalized returns the config with defaulted fields resolved the way Run's
// setup stage resolves them (Scale 0 → 1.0). The staged engine keys artifacts
// on the normalized form so `scale 0` and `scale 1` share them, matching the
// Result.Config the monolith reports.
func (c Config) Normalized() Config {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	return c
}

// Library runs the library stage body: the technology and the (possibly
// pin-cap-scaled) cell library for this configuration.
func (c Config) Library() (*tech.Technology, *liberty.Library, error) {
	t := tech.New(c.Node, c.Mode)
	lib, err := liberty.Default(c.Node, c.Mode)
	if err != nil {
		return nil, nil, err
	}
	if c.PinCapScale != 0 && c.PinCapScale != 1 {
		lib = lib.ScalePinCap(c.PinCapScale)
	}
	return t, lib, nil
}

// GenerateDesign runs the generate stage body: a fresh clone of the
// process-cached generated netlist, carrying the calibrated base (Table 12)
// target clock. It also returns the calibration factor, which SweepClockPs
// applies to a ClockPs override at the opt stage.
func (c Config) GenerateDesign() (*netlist.Design, float64, error) {
	src, err := generated(c.Circuit, c.Scale)
	if err != nil {
		return nil, 0, err
	}
	d := src.Clone()
	// Synthesis and placement always target the base (Table 12) clock; a
	// ClockPs sweep override is applied at the opt stage, so every sweep
	// point shares its generate/synth/place artifacts (and its RNG stream —
	// see DeriveSeed).
	baseClock, err := circuits.TargetClockPs(c.Circuit, c.Node)
	if err != nil {
		return nil, 0, err
	}
	calib := ClockCalibrationFactor(c.Circuit, c.Node)
	d.TargetClockPs = baseClock * calib
	return d, calib, nil
}

// BuildWLM runs the wire-load-model stage body: the model for this mode (or
// the 2D model under Use2DWLM — the "-n" rows of Table 15) sized from the
// generic netlist's estimated die area, plus the resolved target utilization.
func (c Config) BuildWLM(d *netlist.Design, lib *liberty.Library) (*wlm.Model, float64) {
	areaEst := estimateArea(d, lib)
	util := c.Util
	if util == 0 {
		util = circuits.TargetUtilization(c.Circuit)
	}
	wlmMode := c.Mode
	if c.Use2DWLM {
		wlmMode = tech.Mode2D
	}
	model := wlm.BuildForMode(c.Node, wlmMode, areaEst/util)
	return model, util
}

// SweepClockPs resolves the effective target clock for the optimization and
// sign-off stages: the calibrated ClockPs override when set, else the base
// (already-calibrated) clock carried on the design since generate.
func (c Config) SweepClockPs(base, calib float64) float64 {
	if c.ClockPs != 0 {
		return c.ClockPs * calib
	}
	return base
}

// RunSynth maps the source netlist onto the library under the wire load model
// and runs the post-synth gates. It returns the synthesis result and the
// reference snapshot for the next equivalence check (nil when equiv is off).
func RunSynth(src *netlist.Design, lib *liberty.Library, model *wlm.Model, gs *GateSet, prof *Profile) (*synth.Result, *netlist.Design, error) {
	sres, err := synthGated(src, lib, model, gs, prof)
	if err != nil {
		return nil, nil, err
	}
	var ref *netlist.Design
	if gs.NeedRef() {
		ref = sres.Design.Clone()
	}
	return sres, ref, nil
}

// synthGated is RunSynth without the reference snapshot. src is read-only:
// synthesis maps a clone.
func synthGated(src *netlist.Design, lib *liberty.Library, model *wlm.Model, gs *GateSet, prof *Profile) (*synth.Result, error) {
	t0 := time.Now()
	sres, err := synth.Run(src, synth.Options{Lib: lib, WLM: model})
	if err != nil {
		return nil, fmt.Errorf("flow %s: synth: %w", gs.subject, err)
	}
	prof.Add("synth", time.Since(t0))
	if err := gs.Lint("post-synth", sres.Design); err != nil {
		return nil, err
	}
	if err := gs.Equiv("post-synth vs source", src, sres.Design); err != nil {
		return nil, err
	}
	return sres, nil
}

// RunPlace places the mapped netlist. It reserves headroom for optimization
// growth (buffers, upsizing) so the FINAL utilization lands near the target,
// as the paper's flow does (Section S6 reports post-optimization utilizations
// at the target).
func RunPlace(d *netlist.Design, t *tech.Technology, lib *liberty.Library, util float64, seed uint64, workers int, prof *Profile) (*place.Placement, error) {
	placeUtil := util * 0.90
	t0 := time.Now()
	pl, err := place.Run(d, place.Options{Lib: lib, Tech: t, TargetUtil: placeUtil, Seed: seed, Workers: workers})
	if err != nil {
		return nil, err
	}
	prof.AddPar("place", time.Since(t0), workers)
	return pl, nil
}

// ClosePreRoute runs pre-route optimization on bounding-box parasitics plus
// the post-place gates, mutating d and pl in place. ref is the post-synth
// reference; the returned design is the reference snapshot for the post-route
// check (ref itself when equiv is off — i.e. nil stays nil).
func ClosePreRoute(d *netlist.Design, pl *place.Placement, tb *captable.Table, lib *liberty.Library, areaBudget float64, ref *netlist.Design, workers int, gs *GateSet, prof *Profile) (*opt.Stats, *netlist.Design, error) {
	preStats, err := closePreRouteGated(d, pl, tb, lib, areaBudget, ref, workers, gs, prof)
	if err != nil {
		return nil, nil, err
	}
	if gs.NeedRef() {
		ref = d.Clone()
	}
	return preStats, ref, nil
}

// closePreRouteGated is ClosePreRoute without the reference snapshot.
func closePreRouteGated(d *netlist.Design, pl *place.Placement, tb *captable.Table, lib *liberty.Library, areaBudget float64, ref *netlist.Design, workers int, gs *GateSet, prof *Profile) (*opt.Stats, error) {
	t0 := time.Now()
	estWire := hpwlWire(pl, tb)
	preStats, err := opt.Close(d, opt.Options{
		Lib: lib, Wire: estWire, Placement: pl, MaxRounds: 8, AreaBudget: areaBudget,
		Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	prof.AddPar("opt", time.Since(t0), workers)
	if err := gs.Lint("post-place", d); err != nil {
		return nil, err
	}
	if err := gs.Equiv("post-place vs post-synth", ref, d); err != nil {
		return nil, err
	}
	return preStats, nil
}

// RunRoute globally routes the placement and extracts parasitics.
func RunRoute(pl *place.Placement, t *tech.Technology, tb *captable.Table, workers int, prof *Profile) (*route.Result, *rcx.Extraction, error) {
	rt, err := globalRoute(pl, t, workers, prof)
	if err != nil {
		return nil, nil, err
	}
	return rt, rcx.Extract(rt, tb, t), nil
}

// globalRoute globally routes the placement.
func globalRoute(pl *place.Placement, t *tech.Technology, workers int, prof *Profile) (*route.Result, error) {
	t0 := time.Now()
	rt, err := route.Run(pl, route.Options{Tech: t, Workers: workers})
	if err != nil {
		return nil, err
	}
	prof.AddPar("route", time.Since(t0), workers)
	return rt, nil
}

// ClosePostRoute runs post-route optimization on extracted parasitics with
// power recovery, folding preStats into the returned totals.
func ClosePostRoute(d *netlist.Design, pl *place.Placement, tb *captable.Table, ex *rcx.Extraction, lib *liberty.Library, areaBudget float64, preStats *opt.Stats, workers int, prof *Profile) (*opt.Stats, error) {
	t0 := time.Now()
	postSrc := extractedWire(ex, pl, tb)
	postStats, err := opt.Close(d, opt.Options{
		Lib: lib, Wire: postSrc.fn, Placement: pl, MaxRounds: 8, PowerRecovery: true,
		NetChanged: postSrc.markDirty, AreaBudget: areaBudget, Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	prof.AddPar("opt", time.Since(t0), workers)
	postStats.Upsized += preStats.Upsized
	postStats.BuffersAdd += preStats.BuffersAdd
	postStats.Downsized += preStats.Downsized
	return postStats, nil
}

// RunSignoff converges final routing, extraction, and sign-off timing.
// Buffers moved nets around, so it re-routes, re-extracts, and analyzes; if
// the re-routed parasitics uncover a residual violation it closes once more
// on the final extraction (ECO-style) and re-routes, up to three passes.
// ECO fix counts accumulate into postStats. The returned wire function serves
// the final extraction.
func RunSignoff(d *netlist.Design, pl *place.Placement, tb *captable.Table, t *tech.Technology, lib *liberty.Library, areaBudget float64, postStats *opt.Stats, workers int, prof *Profile) (*route.Result, *sta.Result, func(int) sta.WireRC, error) {
	var rt *route.Result
	var timing *sta.Result
	var finalWire func(int) sta.WireRC
	for pass := 0; ; pass++ {
		var err error
		rt, err = globalRoute(pl, t, workers, prof)
		if err != nil {
			return nil, nil, nil, err
		}
		finalWire = extractedWire(rcx.Extract(rt, tb, t), pl, tb).fn
		t0 := time.Now()
		timing, err = sta.Analyze(d, sta.Env{Lib: lib, Wire: finalWire, Workers: workers})
		if err != nil {
			return nil, nil, nil, err
		}
		prof.AddPar("sta", time.Since(t0), workers)
		if timing.Met() || pass >= 2 {
			break
		}
		t0 = time.Now()
		ecoStats, err := opt.Close(d, opt.Options{
			Lib: lib, Wire: finalWire, Placement: pl, MaxRounds: 6, SkipDRV: true,
			AreaBudget: areaBudget, Workers: workers,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		prof.AddPar("opt", time.Since(t0), workers)
		postStats.Upsized += ecoStats.Upsized
		postStats.BuffersAdd += ecoStats.BuffersAdd
	}
	return rt, timing, finalWire, nil
}

// RunPower computes the sign-off power report, including the clock
// distribution tree: an ideal-skew buffered tree over the DFFs. Its wire
// capacitance and buffer energy are charged at two transitions per cycle; the
// tree shrinks with the T-MI footprint like signal wiring.
func RunPower(d *netlist.Design, lib *liberty.Library, wire func(int) sta.WireRC, acts power.Activities, timing *sta.Result, clock float64, pl *place.Placement, tb *captable.Table, prof *Profile) (*power.Report, *cts.Result, error) {
	t0 := time.Now()
	pow, err := power.Analyze(d, power.Env{
		Lib: lib, Wire: wire, Activities: acts, Timing: timing,
	})
	if err != nil {
		return nil, nil, err
	}
	clk := cts.Build(pl, 0)
	_, cInt, _ := tb.ClassAverage(tech.ClassIntermediate)
	clkCap := clk.Wirelength * cInt
	pow.Wire += clkCap * lib.VDD * lib.VDD / clock
	pow.WireCap += clkCap / 1000
	if buf := lib.Cell("CLKBUF_X4"); buf != nil && len(buf.Arcs) > 0 {
		e := buf.Arcs[0].Energy.At(20, 10)
		pow.Cell += float64(clk.NumBuffers) * e * 2 / clock
		pow.Leakage += float64(clk.NumBuffers) * buf.Leakage
	}
	pow.Net = pow.Wire + pow.Pin
	pow.Total = pow.Cell + pow.Net + pow.Leakage
	prof.Add("power", time.Since(t0))
	return pow, clk, nil
}

// ReportInputs bundles the final artifacts AssembleResult reads.
type ReportInputs struct {
	Design     *netlist.Design
	Placement  *place.Placement
	Route      *route.Result
	Timing     *sta.Result
	ClockPs    float64
	Power      *power.Report
	ClockTree  *cts.Result
	OptStats   *opt.Stats
	SynthStats netlist.Stats

	LintReports  []*lint.Report
	EquivReports []*equiv.Report
	LibCheck     *equiv.LibReport
	StageTimes   []StageTime
}

// AssembleResult builds the flow Result from the final artifacts. lib must be
// the same (possibly pin-cap-scaled) library the flow ran under.
func AssembleResult(cfg Config, lib *liberty.Library, in ReportInputs) *Result {
	d, pl, rt, clk := in.Design, in.Placement, in.Route, in.ClockTree
	res := &Result{
		Config:     cfg,
		Design:     d,
		Placement:  pl,
		Footprint:  pl.Die.Area(),
		DieW:       pl.Die.W(),
		DieH:       pl.Die.H(),
		NumCells:   len(d.Instances),
		Util:       placedUtil(d, lib, pl),
		TotalWL:    rt.TotalLen,
		WLByClass:  rt.LenByClass,
		Overflow:   rt.Overflow,
		WNS:        sta.Finite(in.Timing.WNS),
		ClockPs:    in.ClockPs,
		Power:      in.Power,
		OptStats:   in.OptStats,
		SynthStats: in.SynthStats,
		WLSamples:  map[int][]float64{},
	}
	res.LintReports = in.LintReports
	res.EquivReports = in.EquivReports
	res.LibCheck = in.LibCheck
	res.StageTimes = in.StageTimes
	res.TotalWL += clk.Wirelength
	res.WLByClass[tech.ClassIntermediate] += clk.Wirelength // clock routes on 2x layers
	res.ClockWL = clk.Wirelength
	res.ClockBuffers = clk.NumBuffers
	st := d.Stats()
	res.NumBuffers = st.NumBuffers + clk.NumBuffers
	res.AvgFanout = st.AverageFanout
	for i := range d.Instances {
		res.CellArea += lib.MustCell(d.Instances[i].CellName).Area
	}
	for ni := range d.Nets {
		if ni == d.ClockNet {
			continue
		}
		f := d.Nets[ni].Fanout()
		if f > 32 {
			f = 32
		}
		res.WLSamples[f] = append(res.WLSamples[f], rt.Routes[ni].Len)
	}
	return res
}

// FieldKeyTerm renders one Config field's value in the same canonical form
// the cache key uses (strconv round-trip floats, sorted map entries), the
// basis of the staged engine's per-stage keys. It panics on a field name that
// is not a Config field — the DAG consistency test keeps the engine's key
// sets inside this domain.
func (c Config) FieldKeyTerm(field string) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch field {
	case "Circuit":
		return c.Circuit
	case "Scale":
		return f(c.Scale)
	case "Node":
		return strconv.Itoa(int(c.Node))
	case "Mode":
		return strconv.Itoa(int(c.Mode))
	case "ClockPs":
		return f(c.ClockPs)
	case "Util":
		return f(c.Util)
	case "PinCapScale":
		return f(c.PinCapScale)
	case "ResistivityScale":
		classes := make([]int, 0, len(c.ResistivityScale))
		for cl := range c.ResistivityScale {
			classes = append(classes, int(cl))
		}
		sort.Ints(classes)
		var b strings.Builder
		for _, cl := range classes {
			b.WriteString(strconv.Itoa(cl))
			b.WriteByte(':')
			b.WriteString(f(c.ResistivityScale[tech.LayerClass(cl)]))
			b.WriteByte(',')
		}
		return b.String()
	case "Use2DWLM":
		return strconv.FormatBool(c.Use2DWLM)
	case "Activities":
		return f(c.Activities.PrimaryInput) + "/" + f(c.Activities.SeqOutput)
	case "Seed":
		return strconv.FormatUint(c.Seed, 10)
	case "Lint":
		return strconv.Itoa(int(c.Lint))
	case "Equiv":
		return strconv.Itoa(int(c.Equiv))
	default:
		panic("flow: FieldKeyTerm: unknown Config field " + field)
	}
}
