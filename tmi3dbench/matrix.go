package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"tmi3d/internal/core"
	"tmi3d/internal/flow"
	"tmi3d/internal/tech"
)

// matrixCircuits are the Table 4 benchmarks, longest pair first (serial flow
// time at scale 0.15: M256 ≈ 9.5 s, AES ≈ 1.8 s, DES ≈ 1.75 s, LDPC ≈ 1.4 s,
// FPU ≈ 0.75 s on a 2-core 2.1 GHz Xeon).
var matrixCircuits = []string{"M256", "AES", "DES", "LDPC", "FPU"}

// table4 holds the paper's published T-MI-over-2D deltas (%) at 45 nm for
// footprint and total power (Table 4). The benchmark checks the sign of each
// measured delta against these; they are copied from the paper, not read
// from the code under test.
var table4 = map[string]struct{ footprint, total float64 }{
	"FPU":  {-41.7, -14.5},
	"AES":  {-42.4, -10.9},
	"LDPC": {-43.2, -32.1},
	"DES":  {-40.9, -4.1},
	"M256": {-43.4, -17.5},
}

// digestsJSON records, per circuit scale, the SHA-256 of flow.EncodeResult
// for every study-matrix config. The byte-identity contract fixes these
// bytes: a change to any digest is a change to the paper's results.
//
//go:embed digests.json
var digestsJSON []byte

func recordedDigests(scale float64) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	d, ok := all[strconv.FormatFloat(scale, 'g', -1, 64)]
	if !ok {
		return nil, fmt.Errorf("digests.json has no digests for scale %g", scale)
	}
	return d, nil
}

// matrixConfigs lists the matrix in submission order: pairs longest first,
// as core.Study.Pairs submits them (2D and T-MI adjacent), with the seed
// choosing which side of each pair goes first. Longest-first keeps the
// pool's idle tail to one short FPU flow, so a pass's makespan does not
// depend on the seed.
func matrixConfigs(scale float64, seed, pass uint64) []flow.Config {
	rng := newRNG(seed, 100+pass)
	cfgs := make([]flow.Config, 0, 2*len(matrixCircuits))
	for _, n := range matrixCircuits {
		pair := [2]flow.Config{
			{Circuit: n, Scale: scale, Node: tech.N45, Mode: tech.Mode2D},
			{Circuit: n, Scale: scale, Node: tech.N45, Mode: tech.ModeTMI},
		}
		if rng.IntN(2) == 1 {
			pair[0], pair[1] = pair[1], pair[0]
		}
		cfgs = append(cfgs, pair[0], pair[1])
	}
	return cfgs
}

func matrixSetup(scale float64) (float64, error) {
	t0 := time.Now()
	err := warm(matrixConfigs(scale, 0, 0))
	return time.Since(t0).Seconds(), err
}

func matrixSetupOnly(o *options) (float64, error) { return matrixSetup(o.scale) }

// runMatrix runs whole matrix passes, each on a fresh core.Study (so no
// config is a cache hit) with nproc flows in flight and one intra-flow worker
// each, until the time budget is spent. Output checks run between passes,
// outside the timed phase.
func runMatrix(o *options) (*outcome, error) {
	res := &outcome{}
	var err error
	if res.setup, err = matrixSetup(o.scale); err != nil {
		return nil, err
	}
	want, err := recordedDigests(o.scale)
	if err != nil {
		return nil, err
	}
	var first []count
	startTimedPhase()
	dl := deadline{budget: o.seconds}
	for pass := uint64(0); dl.more(); pass++ {
		cfgs := matrixConfigs(o.scale, o.seed, pass)
		study := core.NewStudy(o.scale)
		study.Workers = nproc()
		study.IntraWorkers = 1
		var mu sync.Mutex
		var lats []float64
		study.Runner = func(cfg flow.Config) (*flow.Result, error) {
			t0 := time.Now()
			r, err := flow.Run(cfg)
			d := time.Since(t0).Seconds()
			mu.Lock()
			lats = append(lats, d)
			mu.Unlock()
			return r, err
		}
		u0 := readUsage()
		t0 := time.Now()
		results, runErr := study.RunAll(cfgs)
		wall := time.Since(t0).Seconds()
		u1 := readUsage()
		dl.add(wall)
		res.passes = append(res.passes, wall)
		res.wall += wall
		res.cpu += u1.CPU - u0.CPU
		res.latencies = append(res.latencies, lats...)
		res.attempted += len(cfgs)
		if runErr != nil {
			for range cfgs {
				res.fail("pass %d: %v", pass, runErr)
			}
			continue
		}
		ok, counts := checkMatrix(res, o, pass, cfgs, results, want)
		res.configs += ok
		if first == nil {
			first = counts
		} else if fmt.Sprint(first) != fmt.Sprint(counts) {
			res.fail("pass %d: deterministic counts %v differ from pass 0's %v", pass, counts, first)
		}
	}
	res.peakRSSMB = peakRSSMB()
	res.counts = first
	return res, nil
}

// checkMatrix verifies one pass: every payload's digest against the
// recorded one, and every T-MI/2D pair's footprint and total-power delta
// against the sign the paper publishes. It returns how many configs passed
// and the pass's deterministic counts.
func checkMatrix(res *outcome, o *options, pass uint64, cfgs []flow.Config, results []*flow.Result, want map[string]string) (int, []count) {
	var rc resultCounts
	bad := make([]bool, len(cfgs))
	for i, r := range results {
		payload, err := flow.EncodeResult(r)
		if err != nil {
			res.fail("%s: %v", configName(cfgs[i]), err)
			bad[i] = true
			continue
		}
		if o.corrupt && pass == 0 && i == 0 {
			payload = append([]byte{' '}, payload...)
		}
		rc.add(r, payload)
		if got := digest(payload); got != want[configName(cfgs[i])] {
			res.fail("%s: result digest %s, recorded %s", configName(cfgs[i]), got, want[configName(cfgs[i])])
			bad[i] = true
		}
	}
	for i := 0; i+1 < len(results); i += 2 {
		d2, d3 := results[i], results[i+1]
		if cfgs[i].Mode != tech.Mode2D {
			d2, d3 = d3, d2
		}
		paper := table4[cfgs[i].Circuit]
		for _, c := range []struct {
			what          string
			a, b, publish float64
		}{
			{"footprint", d2.Footprint, d3.Footprint, paper.footprint},
			{"total power", d2.Power.Total, d3.Power.Total, paper.total},
		} {
			delta := (c.b - c.a) / c.a * 100
			if math.Signbit(delta) != math.Signbit(c.publish) || math.IsNaN(delta) {
				for _, j := range []int{i, i + 1} {
					if !bad[j] {
						bad[j] = true
						res.fail("%s: T-MI %s delta %+.1f%% has the wrong sign (paper %+.1f%%)",
							configName(cfgs[j]), c.what, delta, c.publish)
					}
				}
			}
		}
	}
	ok := 0
	for _, b := range bad {
		if !b {
			ok++
		}
	}
	return ok, rc.list()
}

// printDigests runs the matrix at o.scale with plain flow.Run and prints its
// digests as a digests.json entry.
func printDigests(o *options) error {
	cfgs := matrixConfigs(o.scale, 0, 0)
	refs, err := monolithic(cfgs, map[string]string{})
	if err != nil {
		return err
	}
	d := map[string]string{}
	for i, c := range cfgs {
		d[configName(c)] = refs[i]
	}
	return printJSON(o.out, map[string]map[string]string{strconv.FormatFloat(o.scale, 'g', -1, 64): d})
}
