package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"

	"tmi3d/internal/flow"
)

// defaultScale is the circuit scale of every workload: one flow takes
// 0.4–0.9 s (M256 ≈ 4–5 s) on a 2-core 2.1 GHz Xeon.
const defaultScale = 0.15

// nproc is the worker budget the workloads size themselves to.
func nproc() int { return max(runtime.GOMAXPROCS(0), 1) }

// configName identifies a config in digests, failures and traces.
func configName(c flow.Config) string {
	s := fmt.Sprintf("%s/%v/%v", c.Circuit, c.Node, c.Mode)
	if c.ClockPs != 0 {
		s += "@" + strconv.FormatFloat(c.ClockPs, 'g', -1, 64) + "ps"
	}
	return s
}

// newRNG is the benchmark's seeded stream; stream separates independent
// draws made from one seed.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x746d6933642d6265^stream))
}

// digest is the hex SHA-256 of a payload.
func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// warm performs the set-up every workload shares for its configs: the cell
// libraries loaded, the once-per-process switch-level library check, and each
// circuit generated.
func warm(cfgs []flow.Config) error {
	flow.LibraryCheck()
	for _, c := range cfgs {
		if _, _, err := c.Library(); err != nil {
			return err
		}
		if _, _, err := c.GenerateDesign(); err != nil {
			return err
		}
	}
	return nil
}

// resultCounts are the deterministic counts a flow result carries.
type resultCounts struct {
	equivPoints, equivBySAT, equivStructural int
	optRounds, buffersAdded                  int
	lintDiags                                int
	reportBytes                              int
}

func (rc *resultCounts) add(r *flow.Result, payload []byte) {
	for _, e := range r.EquivReports {
		rc.equivPoints += e.Points
		rc.equivBySAT += e.BySAT
		rc.equivStructural += e.Structural
	}
	for _, l := range r.LintReports {
		rc.lintDiags += len(l.Diags)
	}
	if r.OptStats != nil {
		rc.optRounds += r.OptStats.Rounds
		rc.buffersAdded += r.OptStats.BuffersAdd
	}
	rc.reportBytes += len(payload)
}

// list renders the counts the issue names as repeatable.
func (rc resultCounts) list() []count {
	return []count{
		{"equiv.points", float64(rc.equivPoints)},
		{"equiv.by_sat", float64(rc.equivBySAT)},
		{"opt.rounds", float64(rc.optRounds)},
		{"opt.buffers_added", float64(rc.buffersAdded)},
		{"report.bytes", float64(rc.reportBytes)},
	}
}

// roundPs keeps clock points on a 0.01 ps grid so they print and query
// exactly.
func roundPs(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}
