package flow

import (
	"slices"

	"tmi3d/internal/captable"
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
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

// This file holds one body per cached stage of the pipeline: the node
// functions dispatch (dag.go) calls on upstream envelopes, whether the walk
// computed them or a cache served them. Each node takes its upstream
// envelopes plus per-run values (technology, library, RC table, generated
// netlist, calibration, seed, workers, a fresh GateSet, the profile), treats
// every input as read-only, clones only what it mutates, and returns its own
// envelope. A node method reads only its own StageKeys fields from the Config;
// anything else it needs arrives as an argument.
//
// The envelopes are the wire form of each node's output. Every envelope
// encodes canonically (encoding/json with sorted map keys, HTML escaping off)
// and decodes to an exact inverse: artifact IDs address these bytes. The
// report node has no envelope; its artifact is the EncodeResult payload.

// WLMArtifact is the wire-load-model node's output: the model plus the
// resolved target utilization (placement consumes both).
type WLMArtifact struct {
	Model *wlm.Model `json:"model"`
	Util  float64    `json:"util"`
}

// SynthArtifact is the mapped netlist with its synthesis statistics and the
// post-synth gate reports.
type SynthArtifact struct {
	Design *netlist.Design `json:"design"`
	Stats  netlist.Stats   `json:"stats"`
	Lint   []*lint.Report  `json:"lint,omitempty"`
	Equiv  []*equiv.Report `json:"equiv,omitempty"`
}

// PlaceArtifact is the placement geometry; the design it places is the synth
// artifact, rebound on consumption.
type PlaceArtifact struct {
	Snap place.Snapshot `json:"snapshot"`
}

// OptArtifact is the pre-route-closed implementation: the optimized netlist,
// its placement (optimization moves cells and adds buffers), the pre-route
// optimization statistics, and the post-place gate reports.
type OptArtifact struct {
	Design   *netlist.Design `json:"design"`
	Snap     place.Snapshot  `json:"snapshot"`
	PreStats *opt.Stats      `json:"pre_stats"`
	Lint     []*lint.Report  `json:"lint,omitempty"`
	Equiv    []*equiv.Report `json:"equiv,omitempty"`
}

// RouteArtifact is the first global route of the pre-route-closed placement;
// sign-off extracts its parasitics for post-route optimization.
type RouteArtifact struct {
	Route *route.Result `json:"route"`
}

// SignoffArtifact is the converged final implementation: the post-route
// optimized netlist and placement, the final route and sign-off timing, the
// accumulated optimization statistics (pre-route + post-route + ECO), and the
// post-route gate reports.
type SignoffArtifact struct {
	Design *netlist.Design `json:"design"`
	Snap   place.Snapshot  `json:"snapshot"`
	Route  *route.Result   `json:"route"`
	Timing *sta.Result     `json:"timing"`
	Stats  *opt.Stats      `json:"stats"`
	Lint   []*lint.Report  `json:"lint,omitempty"`
	Equiv  []*equiv.Report `json:"equiv,omitempty"`
}

// PowerArtifact is the sign-off power report plus the clock tree it charged.
type PowerArtifact struct {
	Power *power.Report `json:"power"`
	Clock *cts.Result   `json:"clock_tree"`
}

// CapTable builds the RC table of the opt, signoff and power stages, each of
// which builds its own: the technology's layer stack under the config's
// resistivity scaling.
func (c Config) CapTable(t *tech.Technology) *captable.Table {
	return captable.Build(t, captable.Options{ResistivityScale: c.ResistivityScale})
}

// areaBudget caps optimization's cell-area growth at 95% of the die.
func areaBudget(pl *place.Placement) float64 { return pl.Die.Area() * 0.95 }

// WLMNode sizes the wire load model from the generated netlist.
func (c Config) WLMNode(lib *liberty.Library, gen *netlist.Design) *WLMArtifact {
	model, util := c.BuildWLM(gen, lib)
	return &WLMArtifact{Model: model, Util: util}
}

// SynthNode maps the generated netlist onto the library and runs the
// post-synth gates.
func SynthNode(gen *netlist.Design, lib *liberty.Library, w *WLMArtifact, gs *GateSet, prof *Profile) (*SynthArtifact, error) {
	sres, err := synthGated(gen, lib, w.Model, gs, prof)
	if err != nil {
		return nil, err
	}
	lintR, equivR := gs.Reports()
	return &SynthArtifact{Design: sres.Design, Stats: sres.Stats, Lint: lintR, Equiv: equivR}, nil
}

// PlaceNode places the mapped netlist.
func PlaceNode(t *tech.Technology, lib *liberty.Library, w *WLMArtifact, s *SynthArtifact, seed uint64, workers int, prof *Profile) (*PlaceArtifact, error) {
	pl, err := RunPlace(s.Design, t, lib, w.Util, seed, workers, prof)
	if err != nil {
		return nil, err
	}
	return &PlaceArtifact{Snap: pl.Snapshot()}, nil
}

// OptNode retargets a copy of the placed netlist to the sweep clock and
// closes it on bounding-box parasitics, checking it against the synth
// netlist.
func (c Config) OptNode(lib *liberty.Library, tb *captable.Table, s *SynthArtifact, p *PlaceArtifact, calib float64, workers int, gs *GateSet, prof *Profile) (*OptArtifact, error) {
	d := s.Design.Clone()
	pl := p.Snap.Restore(d)
	d.TargetClockPs = c.SweepClockPs(d.TargetClockPs, calib)
	preStats, err := closePreRouteGated(d, pl, tb, lib, areaBudget(pl), s.Design, workers, gs, prof)
	if err != nil {
		return nil, err
	}
	lintR, equivR := gs.Reports()
	return &OptArtifact{Design: d, Snap: pl.Snapshot(), PreStats: preStats, Lint: lintR, Equiv: equivR}, nil
}

// RouteNode globally routes the pre-route-closed placement.
func RouteNode(t *tech.Technology, o *OptArtifact, workers int, prof *Profile) (*RouteArtifact, error) {
	rt, err := globalRoute(o.Snap.Restore(o.Design), t, workers, prof)
	if err != nil {
		return nil, err
	}
	return &RouteArtifact{Route: rt}, nil
}

// SignoffNode closes a copy of the pre-route-closed netlist on the route's
// extracted parasitics, converges the final route and timing, and checks the
// result against the opt netlist.
func SignoffNode(t *tech.Technology, lib *liberty.Library, tb *captable.Table, o *OptArtifact, r *RouteArtifact, workers int, gs *GateSet, prof *Profile) (*SignoffArtifact, error) {
	d := o.Design.Clone()
	pl := o.Snap.Restore(d)
	budget := areaBudget(pl)
	ex := rcx.Extract(r.Route, tb, t)
	postStats, err := ClosePostRoute(d, pl, tb, ex, lib, budget, o.PreStats, workers, prof)
	if err != nil {
		return nil, err
	}
	rt, timing, _, err := RunSignoff(d, pl, tb, t, lib, budget, postStats, workers, prof)
	if err != nil {
		return nil, err
	}
	if err := gs.Lint("post-route", d); err != nil {
		return nil, err
	}
	if err := gs.Equiv("post-route vs post-place", o.Design, d); err != nil {
		return nil, err
	}
	lintR, equivR := gs.Reports()
	return &SignoffArtifact{
		Design: d, Snap: pl.Snapshot(), Route: rt, Timing: timing,
		Stats: postStats, Lint: lintR, Equiv: equivR,
	}, nil
}

// PowerNode computes sign-off power on the final route's extraction. The
// extraction is fresh at sign-off exit (nothing re-optimized after the last
// route), so it serves every net exactly as the sign-off timing saw it.
func (c Config) PowerNode(t *tech.Technology, lib *liberty.Library, tb *captable.Table, s *SignoffArtifact, prof *Profile) (*PowerArtifact, error) {
	pl := s.Snap.Restore(s.Design)
	wire := extractedWire(rcx.Extract(s.Route, tb, t), pl, tb).fn
	pow, clk, err := RunPower(s.Design, lib, wire, c.Activities, s.Timing, s.Design.TargetClockPs, pl, tb, prof)
	if err != nil {
		return nil, err
	}
	return &PowerArtifact{Power: pow, Clock: clk}, nil
}

// ReportNode assembles the flow result. Gate reports concatenate in check
// order (post-synth, post-place, post-route); gs supplies the library check.
// The result's Design and Placement are the signoff envelope's, which the
// caller must not mutate while the envelope is shared.
func ReportNode(cfg Config, lib *liberty.Library, gs *GateSet, s *SynthArtifact, o *OptArtifact, so *SignoffArtifact, p *PowerArtifact, prof *Profile) *Result {
	return AssembleResult(cfg, lib, ReportInputs{
		Design: so.Design, Placement: so.Snap.Restore(so.Design), Route: so.Route,
		Timing: so.Timing, ClockPs: so.Design.TargetClockPs, Power: p.Power,
		ClockTree: p.Clock, OptStats: so.Stats, SynthStats: s.Stats,
		LintReports:  slices.Concat(s.Lint, o.Lint, so.Lint),
		EquivReports: slices.Concat(s.Equiv, o.Equiv, so.Equiv),
		LibCheck:     gs.LibCheck(), StageTimes: prof.Times(),
	})
}
