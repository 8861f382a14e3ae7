// Command loadgen drives a running tmi3d serve daemon with concurrent PPA
// queries and reports a latency histogram. It reuses the daemon's own config
// codec (serve.ConfigQuery), so the keys it requests are exactly the keys the
// daemon caches under.
//
// Key mix: a request is "hot" (the shared base config, cache-friendly) or
// "cold" (a unique seed, forcing a fresh flow) according to -cold. With
// -verify, every unique configuration's response is checked byte-for-byte
// against a direct in-process flow.Run — the serving layer must be invisible.
//
//	loadgen -addr 127.0.0.1:8080 -workers 64 -n 256 -scale 0.1 -verify
//
// With -sweep N the tool instead issues N sequential clock-sweep points of
// one configuration against a daemon, then asserts
// from /metrics that synthesis and placement executed exactly once across the
// whole sweep — the staged engine's reuse contract, observed end to end.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tmi3d/internal/circuits"
	"tmi3d/internal/flow"
	"tmi3d/internal/serve"
	"tmi3d/internal/tech"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "daemon address (host:port)")
	workers := flag.Int("workers", 8, "concurrent request workers")
	n := flag.Int("n", 64, "total requests to issue")
	circuit := flag.String("circuit", "AES", "benchmark circuit")
	nodeF := flag.String("node", "45", "process node: 45 or 7")
	modeF := flag.String("mode", "tmi", "design mode: 2d, tmi, tmim")
	scale := flag.Float64("scale", 0.1, "circuit scale")
	cold := flag.Float64("cold", 0, "fraction of requests with a unique seed (cold keys), 0..1")
	verify := flag.Bool("verify", false, "check responses byte-identical to direct flow.Run output")
	check := flag.Bool("check", false, "also probe /healthz and /metrics and assert they are sane")
	sweep := flag.Int("sweep", 0, "clock-sweep mode: issue this many sequential sweep points and assert from the daemon's stage metrics that synth/place executed once (needs an otherwise idle daemon)")
	timeout := flag.Duration("timeout", 10*time.Minute, "per-request client timeout")
	flag.Parse()
	log.SetFlags(0)

	base := flow.Config{Circuit: strings.ToUpper(*circuit), Scale: *scale}
	if *nodeF == "7" {
		base.Node = tech.N7
	}
	switch strings.ToLower(*modeF) {
	case "tmi", "3d":
		base.Mode = tech.ModeTMI
	case "tmim", "3d+m":
		base.Mode = tech.ModeTMIM
	}
	if *cold < 0 || *cold > 1 {
		log.Fatal("-cold must be in [0,1]")
	}

	client := &http.Client{Timeout: *timeout}
	urlFor := func(cfg flow.Config) string {
		return "http://" + *addr + "/v1/ppa?" + serve.ConfigQuery(cfg).Encode()
	}

	if *sweep > 0 {
		if failures := sweepRun(client, *addr, urlFor, base, *sweep); failures > 0 {
			log.Fatalf("FAIL: %d failures", failures)
		}
		fmt.Println("OK")
		return
	}

	// Deterministic request plan: round(cold*n) requests get a unique seed
	// (a cold key), spread evenly through the sequence; the rest share the
	// base config (the hot key).
	cfgs := make([]flow.Config, *n)
	for i := range cfgs {
		cfgs[i] = base
	}
	coldCount := int(math.Round(*cold * float64(*n)))
	for k := 0; k < coldCount; k++ {
		i := k * *n / coldCount
		cfgs[i].Seed = 1000 + uint64(i)
	}

	var (
		mu        sync.Mutex
		samples   []sample
		responses = map[string][]byte{} // key -> first body seen
		failures  int
	)
	work := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				cfg := cfgs[i]
				rt0 := time.Now()
				resp, err := client.Get(urlFor(cfg))
				if err != nil {
					mu.Lock()
					failures++
					mu.Unlock()
					log.Printf("request %d: %v", i, err)
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				sec := time.Since(rt0).Seconds()
				if rerr != nil || resp.StatusCode != 200 {
					mu.Lock()
					failures++
					mu.Unlock()
					log.Printf("request %d: status %d (%s)", i, resp.StatusCode, bytes.TrimSpace(body))
					continue
				}
				key := cfg.Key()
				mu.Lock()
				samples = append(samples, sample{sec, resp.Header.Get("X-Cache")})
				if prev, ok := responses[key]; ok {
					if !bytes.Equal(prev, body) {
						failures++
						log.Printf("request %d: response differs from earlier response for the same key", i)
					}
				} else {
					responses[key] = body
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(t0)

	report(samples, wall, failures, len(responses))

	if *verify {
		failures += verifyDirect(responses, cfgs)
	}
	if *check {
		failures += probe(client, *addr)
	}
	if failures > 0 {
		log.Fatalf("FAIL: %d failures", failures)
	}
	fmt.Println("OK")
}

// sweepRun issues `points` sequential clock-sweep requests (a fresh seed makes
// every key cold, so the count below measures exactly this sweep) and asserts
// from the daemon's stage metrics that the upstream stages — wlm, synthesis,
// placement — executed once while the clock-dependent cone executed per point.
// Requests are deliberately sequential: concurrent points would be legal, but
// serializing makes "synth executed once" exact rather than probabilistic.
func sweepRun(client *http.Client, addr string, urlFor func(flow.Config) string, base flow.Config, points int) int {
	base.Seed = uint64(time.Now().UnixNano())
	clk, err := circuits.TargetClockPs(base.Circuit, base.Node)
	if err != nil {
		log.Printf("sweep: %v", err)
		return 1
	}
	before, err := stageExecutions(client, addr)
	if err != nil {
		log.Printf("sweep: scrape: %v", err)
		return 1
	}
	failures := 0
	t0 := time.Now()
	for i := 0; i < points; i++ {
		cfg := base
		cfg.ClockPs = clk * (1.05 + 0.15*float64(i))
		resp, err := client.Get(urlFor(cfg))
		if err != nil {
			log.Printf("sweep point %d: %v", i, err)
			return failures + 1
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != 200 {
			log.Printf("sweep point %d: status %d (%s)", i, resp.StatusCode, bytes.TrimSpace(body))
			return failures + 1
		}
		fmt.Printf("sweep %d/%d: clock %.0f ps  X-Cache=%s  X-Stage-Hits=%q\n",
			i+1, points, cfg.ClockPs, resp.Header.Get("X-Cache"), resp.Header.Get("X-Stage-Hits"))
		if resp.Header.Get("X-Cache") != "run" {
			log.Printf("sweep point %d: X-Cache=%q, want \"run\" (is the daemon idle and the seed fresh?)", i, resp.Header.Get("X-Cache"))
			failures++
		}
		if resp.Header.Get("X-Stage-Hits") == "" {
			log.Printf("sweep point %d: no X-Stage-Hits header on an executed request", i)
			failures++
		}
	}
	after, err := stageExecutions(client, addr)
	if err != nil {
		log.Printf("sweep: scrape: %v", err)
		return failures + 1
	}
	once := []string{"wlm", "synth", "place"}
	per := []string{"opt", "route", "signoff", "power", "report"}
	for _, stage := range once {
		if d := after[stage] - before[stage]; d != 1 {
			log.Printf("sweep: stage %s executed %.0f times across %d points, want 1", stage, d, points)
			failures++
		}
	}
	for _, stage := range per {
		if d := after[stage] - before[stage]; d != float64(points) {
			log.Printf("sweep: stage %s executed %.0f times, want %d (every point)", stage, d, points)
			failures++
		}
	}
	fmt.Printf("sweep     : %d points in %.2fs; synth/place executed once, clock cone %d times\n",
		points, time.Since(t0).Seconds(), points)
	return failures
}

// stageExecutions scrapes tmi3d_stage_executions_total by stage.
func stageExecutions(client *http.Client, addr string) (map[string]float64, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil || resp.StatusCode != 200 {
		return nil, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	const family = "tmi3d_stage_executions_total"
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, family+`{stage="`)
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("bad sample %q: %w", line, err)
		}
		out[name] = f
	}
	return out, nil
}

// verifyDirect re-runs every unique configuration in-process and compares the
// canonical encoding against the daemon's bytes.
func verifyDirect(responses map[string][]byte, cfgs []flow.Config) int {
	unique := map[string]flow.Config{}
	for _, cfg := range cfgs {
		unique[cfg.Key()] = cfg
	}
	failures := 0
	for key, cfg := range unique {
		body, ok := responses[key]
		if !ok {
			continue // every request for this key failed; already counted
		}
		r, err := flow.Run(cfg)
		if err != nil {
			log.Printf("verify %s: direct run: %v", cfg.Circuit, err)
			failures++
			continue
		}
		want, err := flow.EncodeResult(r)
		if err != nil {
			log.Printf("verify: encode: %v", err)
			failures++
			continue
		}
		if !bytes.Equal(body, want) {
			log.Printf("verify: daemon bytes differ from direct flow.Run for key %s", key)
			failures++
		}
	}
	fmt.Printf("verify    : %d unique configs checked against direct flow.Run\n", len(unique))
	return failures
}

// probe asserts the observability endpoints respond and carry the expected
// series.
func probe(client *http.Client, addr string) int {
	failures := 0
	resp, err := client.Get("http://" + addr + "/healthz")
	if err != nil {
		log.Printf("healthz probe failed: %v", err)
		return failures + 1
	}
	if resp.StatusCode != 200 {
		resp.Body.Close()
		log.Printf("healthz probe failed: status %d", resp.StatusCode)
		return failures + 1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = client.Get("http://" + addr + "/metrics")
	if err != nil {
		log.Printf("metrics probe failed: %v", err)
		return failures + 1
	}
	if resp.StatusCode != 200 {
		resp.Body.Close()
		log.Printf("metrics probe failed: status %d", resp.StatusCode)
		return failures + 1
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"tmi3d_requests_total", "tmi3d_request_seconds_count",
		"tmi3d_cache_misses_total", "tmi3d_queue_depth",
	} {
		if !strings.Contains(string(body), series) {
			log.Printf("metrics missing series %s", series)
			failures++
		}
	}
	fmt.Printf("probe     : healthz + metrics ok\n")
	return failures
}

type sample struct {
	sec   float64
	cache string
}

func report(samples []sample, wall time.Duration, failures, uniqueKeys int) {
	if len(samples) == 0 {
		fmt.Println("no successful requests")
		return
	}
	secs := make([]float64, len(samples))
	byCache := map[string]int{}
	for i, s := range samples {
		secs[i] = s.sec
		byCache[s.cache]++
	}
	sort.Float64s(secs)
	pct := func(p float64) float64 { return secs[int(p*float64(len(secs)-1))] }
	fmt.Printf("requests  : %d ok, %d failed, %d unique keys in %.2fs (%.1f/s)\n",
		len(samples), failures, uniqueKeys, wall.Seconds(), float64(len(samples))/wall.Seconds())
	var tiers []string
	for tier := range byCache {
		tiers = append(tiers, tier)
	}
	sort.Strings(tiers)
	for _, tier := range tiers {
		fmt.Printf("  source %-5s: %d\n", tier, byCache[tier])
	}
	fmt.Printf("latency   : p50 %s  p90 %s  p99 %s  max %s\n",
		fmtSec(pct(0.50)), fmtSec(pct(0.90)), fmtSec(pct(0.99)), fmtSec(secs[len(secs)-1]))
	// Log-spaced histogram from 100µs up.
	buckets := []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30}
	counts := make([]int, len(buckets)+1)
	for _, s := range secs {
		i := sort.SearchFloat64s(buckets, s)
		counts[i]++
	}
	max := 1
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		label := "   +Inf"
		if i < len(buckets) {
			label = fmtSec(buckets[i])
		}
		fmt.Printf("  <=%7s %6d %s\n", label, c, strings.Repeat("#", 1+c*40/max))
	}
}

func fmtSec(s float64) string {
	switch {
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
