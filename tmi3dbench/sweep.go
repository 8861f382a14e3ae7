package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tmi3d/internal/circuits"
	"tmi3d/internal/flow"
	"tmi3d/internal/stage"
	"tmi3d/internal/tech"
)

// The clock sweep: LDPC and DES in T-MI at 45 nm, sweepK points each.
var sweepCircuits = []string{"LDPC", "DES"}

const sweepK = 6

func baseClock(c string) float64 {
	ps, err := circuits.TargetClockPs(c, tech.N45)
	if err != nil {
		panic(err) // sweepCircuits are all Table 12 circuits
	}
	return ps
}

// sweepConfigs draws sweepK clock points per circuit on a jittered grid over
// [1.0, 1.5] × the Table 12 clock: point i sits uniformly in the i-th of k
// slices, so every seed covers the whole range and the work per pass varies
// little between seeds. Points within a circuit are shuffled.
func sweepConfigs(seed uint64, scale float64) []flow.Config {
	rng := newRNG(seed, 1)
	var out []flow.Config
	for _, c := range sweepCircuits {
		pts := make([]flow.Config, sweepK)
		for i := range pts {
			f := 1.0 + 0.5*(float64(i)+rng.Float64())/sweepK
			pts[i] = flow.Config{Circuit: c, Scale: scale, Node: tech.N45, Mode: tech.ModeTMI, ClockPs: roundPs(f * baseClock(c))}
		}
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		out = append(out, pts...)
	}
	return out
}

func sweepSetup(o *options) ([]flow.Config, float64, error) {
	t0 := time.Now()
	pts := sweepConfigs(o.seed, o.scale)
	err := warm(pts)
	return pts, time.Since(t0).Seconds(), err
}

func sweepSetupOnly(o *options) (float64, error) {
	_, s, err := sweepSetup(o)
	return s, err
}

// upstreamStages are the stages a sweep shares between its points.
var upstreamStages = []string{"wlm", "synth", "place"}

// stageCounts are an engine's deterministic per-pass counts.
func stageCounts(eng *stage.Engine, points int) ([]count, error) {
	var execs, upstream uint64
	c := eng.Counters()
	for _, ct := range c {
		execs += ct.Executions
	}
	for _, s := range upstreamStages {
		upstream += c[s].Executions
	}
	entries, err := eng.StoreLen()
	if err != nil {
		return nil, err
	}
	n := float64(points)
	return []count{
		{"stage.execs_per_point", float64(execs) / n},
		{"stage.upstream_execs_per_point", float64(upstream) / n},
		{"castore.entries", float64(entries)},
	}, nil
}

// runSweep runs the seeded clock points one at a time, each pass through a
// fresh stage.Engine over a fresh castore directory with Workers = nproc.
// Each point's latency is its Engine.RunStats call; payload checks happen
// between points, off the clock, and against a monolithic flow.Run of every
// point after the timed phase.
func runSweep(o *options) (*outcome, error) {
	res := &outcome{}
	pts, setup, err := sweepSetup(o)
	if err != nil {
		return nil, err
	}
	res.setup = setup
	got := make([]string, len(pts)) // pass-0 payload digest per point
	okRuns := make([]int, len(pts))
	var first []count
	startTimedPhase()
	dl := deadline{budget: o.seconds}
	for pass := 0; dl.more(); pass++ {
		dir := filepath.Join(o.workdir, fmt.Sprintf("sweep-%d", pass))
		eng, err := stage.New(dir)
		if err != nil {
			return nil, err
		}
		var rc resultCounts
		passWall := 0.0
		for i, p := range pts {
			cfg := p
			cfg.Workers = nproc()
			u0 := readUsage()
			t0 := time.Now()
			r, _, err := eng.RunStats(cfg)
			d := time.Since(t0).Seconds()
			u1 := readUsage()
			passWall += d
			res.cpu += u1.CPU - u0.CPU
			res.latencies = append(res.latencies, d)
			res.attempted++
			if err != nil {
				res.fail("pass %d %s: %v", pass, configName(p), err)
				continue
			}
			payload, err := flow.EncodeResult(r)
			if err != nil {
				res.fail("pass %d %s: %v", pass, configName(p), err)
				continue
			}
			if o.corrupt && pass == 0 && i == 1 {
				payload = append([]byte{' '}, payload...)
			}
			rc.add(r, payload)
			switch dg := digest(payload); {
			case pass == 0:
				got[i] = dg
				okRuns[i]++
			case dg != got[i]:
				res.fail("pass %d %s: payload differs from pass 0", pass, configName(p))
			default:
				okRuns[i]++
			}
		}
		dl.add(passWall)
		res.passes = append(res.passes, passWall)
		res.wall += passWall
		sc, err := stageCounts(eng, len(pts))
		if err != nil {
			return nil, err
		}
		counts := append(rc.list(), sc...)
		if first == nil {
			first = counts
		} else if fmt.Sprint(first) != fmt.Sprint(counts) {
			res.fail("pass %d: deterministic counts %v differ from pass 0's %v", pass, counts, first)
		}
		os.RemoveAll(dir)
	}
	res.peakRSSMB = peakRSSMB()
	res.counts = first
	refs, err := monolithic(pts, map[string]string{})
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		if got[i] != "" && got[i] != refs[i] {
			for ; okRuns[i] > 0; okRuns[i]-- {
				res.fail("%s: staged payload differs from monolithic flow.Run", configName(p))
			}
		}
		res.configs += okRuns[i]
	}
	return res, nil
}

// monolithic computes the reference payload digest of each config with a
// plain flow.Run — the byte-identity baseline for the staged engine and the
// daemon. memo carries digests already computed, by config key.
func monolithic(cfgs []flow.Config, memo map[string]string) ([]string, error) {
	out := make([]string, len(cfgs))
	for i, c := range cfgs {
		if d, ok := memo[c.Key()]; ok {
			out[i] = d
			continue
		}
		c.Workers = nproc()
		r, err := flow.Run(c)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", configName(c), err)
		}
		payload, err := flow.EncodeResult(r)
		if err != nil {
			return nil, err
		}
		out[i] = digest(payload)
		memo[c.Key()] = out[i]
	}
	return out, nil
}
