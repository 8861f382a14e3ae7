package flow

import (
	"fmt"
	"time"

	"tmi3d/internal/equiv"
	"tmi3d/internal/liberty"
	"tmi3d/internal/lint"
	"tmi3d/internal/netlist"
)

// GateSet carries one flow run's design-integrity and formal sign-off gates
// (the Encounter sanity checks and the Conformal/Formality box of Fig 1): the
// check subjects and the enforce/warn semantics, plus the reports of the
// checks run through it, in check order. Each gated node function takes a
// Fresh set and packages its reports into that node's envelope; the report
// node concatenates them in pipeline order.
type GateSet struct {
	subject   string
	lintMode  lint.GateMode
	equivMode lint.GateMode
	lib       *liberty.Library
	seed      uint64
	prof      *Profile

	lintReports  []*lint.Report
	equivReports []*equiv.Report
	libCheck     *equiv.LibReport
}

// Gates builds the stage-boundary gate set for this configuration. When the
// equivalence gate is on it runs (and under GateEnforce, enforces) the
// once-per-process switch-level library verification, exactly as the gates
// stage of the flow always has.
func (c Config) Gates(lib *liberty.Library, seed uint64, prof *Profile) (*GateSet, error) {
	g := &GateSet{
		subject:   fmt.Sprintf("%s/%v/%v", c.Circuit, c.Node, c.Mode),
		lintMode:  c.Lint,
		equivMode: c.Equiv,
		lib:       lib,
		seed:      seed,
		prof:      prof,
	}
	if c.Equiv != lint.GateOff {
		t0 := time.Now()
		g.libCheck = LibraryCheck()
		prof.Add("equiv", time.Since(t0))
		if c.Equiv == lint.GateEnforce {
			if err := g.libCheck.Err(); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Lint runs the design-integrity gate at one stage boundary.
func (g *GateSet) Lint(stage string, d *netlist.Design) error {
	if g.lintMode == lint.GateOff {
		return nil
	}
	g0 := time.Now()
	defer func() { g.prof.Add("lint", time.Since(g0)) }()
	rep := lint.CheckDesign(d, lint.DesignOptions{Lib: g.lib})
	rep.Subject = fmt.Sprintf("%s %s", g.subject, stage)
	g.lintReports = append(g.lintReports, rep)
	if g.lintMode == lint.GateEnforce {
		if err := rep.Err(); err != nil {
			return fmt.Errorf("lint gate %s: %w", stage, err)
		}
	}
	return nil
}

// Equiv proves d preserves ref's logic at one stage boundary.
func (g *GateSet) Equiv(stage string, ref, d *netlist.Design) error {
	if g.equivMode == lint.GateOff {
		return nil
	}
	g0 := time.Now()
	defer func() { g.prof.Add("equiv", time.Since(g0)) }()
	rep, err := equiv.Check(ref, d, equiv.Options{Seed: g.seed})
	if err != nil {
		return fmt.Errorf("equiv gate %s: %w", stage, err)
	}
	rep.Subject = fmt.Sprintf("%s %s", g.subject, stage)
	g.equivReports = append(g.equivReports, rep)
	if g.equivMode == lint.GateEnforce {
		if err := rep.Err(); err != nil {
			return fmt.Errorf("equiv gate %s: %w", stage, err)
		}
	}
	return nil
}

// Fresh returns a set with g's configuration and library check and no
// reports: the per-node set a gated node function records into.
func (g *GateSet) Fresh() *GateSet {
	return &GateSet{
		subject: g.subject, lintMode: g.lintMode, equivMode: g.equivMode,
		lib: g.lib, seed: g.seed, prof: g.prof, libCheck: g.libCheck,
	}
}

// NeedRef reports whether downstream equivalence checks need a reference
// snapshot of the current netlist.
func (g *GateSet) NeedRef() bool { return g.equivMode != lint.GateOff }

// Reports returns the accumulated per-stage reports in check order.
func (g *GateSet) Reports() ([]*lint.Report, []*equiv.Report) {
	return g.lintReports, g.equivReports
}

// LibCheck returns the switch-level library verification result (nil when the
// equivalence gate is off).
func (g *GateSet) LibCheck() *equiv.LibReport { return g.libCheck }
