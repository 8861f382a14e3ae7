package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tmi3d/internal/castore"
	"tmi3d/internal/flow"
	"tmi3d/internal/serve"
	"tmi3d/internal/stage"
)

// The daemon's key space is the clock sweep's points: the first
// servicePrimed points of each circuit are primed into the stage store during
// set-up, the rest are new sweep points that execute the downstream cone when
// first requested.
const (
	servicePrimed = 4
	// serviceClients is the number of closed-loop clients: each sends its
	// next request only after the previous response has been read.
	serviceClients = 2
)

type serviceKeys struct {
	all    []flow.Config
	primed []flow.Config
}

func serviceKeySpace(seed uint64, scale float64) serviceKeys {
	var k serviceKeys
	k.all = sweepConfigs(seed, scale)
	for i, c := range k.all {
		if i%sweepK < servicePrimed {
			k.primed = append(k.primed, c)
		}
	}
	return k
}

// streamKey is the key index of request i: a seeded hash of (seed, i), so
// the stream is the same whichever client sends request i.
func streamKey(seed uint64, i int64, n int) int {
	z := seed*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// serviceSetup loads the libraries, generates the circuits and primes a
// stage store with the primed keys through its own engine, standing in for
// an earlier daemon process.
func serviceSetup(o *options, stageDir string) (serviceKeys, float64, error) {
	t0 := time.Now()
	keys := serviceKeySpace(o.seed, o.scale)
	if err := warm(keys.all); err != nil {
		return keys, 0, err
	}
	eng, err := stage.New(stageDir)
	if err != nil {
		return keys, 0, err
	}
	for _, c := range keys.primed {
		c.Workers = nproc()
		if _, err := eng.Run(c); err != nil {
			return keys, 0, fmt.Errorf("prime %s: %w", configName(c), err)
		}
	}
	return keys, time.Since(t0).Seconds(), nil
}

func serviceSetupOnly(o *options) (float64, error) {
	_, s, err := serviceSetup(o, filepath.Join(o.workdir, "stages"))
	return s, err
}

// request is one client-side observation.
type request struct {
	key       int
	latency   float64
	status    int
	cache     string // X-Cache: lru, disk, run or join
	stageRuns int    // stage executions from X-Stage-Hits (-1 if absent)
	ok        bool   // 200 and byte-equal to the first payload for its key
}

// session is one timed daemon session's observations.
type session struct {
	requests []request
	wall     float64
	cpu      float64
	first    []map[int][]byte // per client: first payload seen per key
	scrapes  []string         // /metrics bodies (traced runs only)
}

// runSession opens a fresh daemon (empty result store and LRU) over
// stageDir, drives it from serviceClients closed-loop clients for the given
// seconds, then shuts it down. With scrape set it also reads /metrics before,
// every 200 ms during, and after the run.
func runSession(o *options, keys serviceKeys, stageDir string, seconds float64, scrape bool) (*session, error) {
	resultDir, err := os.MkdirTemp(o.workdir, "results-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(resultDir)
	srv, err := serve.NewServer(serve.Config{StoreDir: resultDir, StageDir: stageDir, Workers: nproc()})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	tr := &http.Transport{MaxIdleConnsPerHost: serviceClients, DisableCompression: true}
	client := &http.Client{Transport: tr}
	base := "http://" + l.Addr().String()
	urls := make([]string, len(keys.all))
	for i, c := range keys.all {
		urls[i] = base + "/v1/ppa?" + serve.ConfigQuery(c).Encode()
	}

	s := &session{first: make([]map[int][]byte, serviceClients)}
	if scrape {
		s.scrapes = append(s.scrapes, getText(client, base+"/metrics"))
	}
	var next atomic.Int64
	per := make([][]request, serviceClients)
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	var during []string
	if scrape {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			tick := time.NewTicker(200 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					during = append(during, getText(client, base+"/metrics"))
				}
			}
		}()
	}
	u0 := readUsage()
	t0 := time.Now()
	end := t0.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		s.first[c] = map[int][]byte{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = clientLoop(o, client, urls, &next, end, s.first[c], c == 0 && o.corrupt)
		}(c)
	}
	wg.Wait()
	s.wall = time.Since(t0).Seconds()
	s.cpu = readUsage().CPU - u0.CPU
	close(stop)
	scrapeWG.Wait()
	if scrape {
		s.scrapes = append(s.scrapes, during...)
		s.scrapes = append(s.scrapes, getText(client, base+"/metrics"))
	}
	for _, p := range per {
		s.requests = append(s.requests, p...)
	}
	tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	if err := <-served; err != nil {
		return nil, err
	}
	return s, nil
}

// clientLoop sends requests from the shared seeded stream until end, reading
// each response fully before the next. Every 200 body is compared with the
// first body this client saw for the same key.
func clientLoop(o *options, client *http.Client, urls []string, next *atomic.Int64, end time.Time, first map[int][]byte, corrupt bool) []request {
	var out []request
	var buf bytes.Buffer
	for time.Now().Before(end) {
		i := next.Add(1) - 1
		k := streamKey(o.seed, i, len(urls))
		r := request{key: k, stageRuns: -1}
		t0 := time.Now()
		resp, err := client.Get(urls[k])
		if err == nil {
			buf.Reset()
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
		}
		if err == nil {
			r.status = resp.StatusCode
			r.cache = resp.Header.Get("X-Cache")
			if h := resp.Header.Get("X-Stage-Hits"); h != "" {
				var mem, disk, run int
				if _, serr := fmt.Sscanf(h, "mem=%d disk=%d run=%d", &mem, &disk, &run); serr == nil {
					r.stageRuns = run
				}
			}
		}
		r.latency = time.Since(t0).Seconds()
		if err == nil && r.status == http.StatusOK {
			body := buf.Bytes()
			if corrupt && len(out) == 0 {
				body = append([]byte{' '}, body...)
			}
			if f, seen := first[k]; !seen {
				first[k] = append([]byte(nil), body...)
				r.ok = true
			} else {
				r.ok = bytes.Equal(f, body)
			}
		}
		out = append(out, r)
	}
	return out
}

func getText(client *http.Client, url string) string {
	resp, err := client.Get(url)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return ""
	}
	return string(b)
}

// checkSession folds a session into an outcome: non-200s and payloads that
// differ from their key's first payload fail, and every key's first
// payloads must equal a monolithic flow.Run of that config.
func checkSession(res *outcome, s *session, keys serviceKeys, memo map[string]string) error {
	refs, err := monolithic(keys.all, memo)
	if err != nil {
		return err
	}
	badKey := map[int]bool{}
	for c, f := range s.first {
		for k, body := range f {
			if digest(body) != refs[k] {
				badKey[k] = true
				res.failures = append(res.failures,
					fmt.Sprintf("client %d %s: payload differs from monolithic flow.Run", c, configName(keys.all[k])))
			}
		}
	}
	for _, r := range s.requests {
		res.attempted++
		res.latencies = append(res.latencies, r.latency)
		switch {
		case r.status != http.StatusOK:
			res.fail("%s: HTTP %d", configName(keys.all[r.key]), r.status)
		case !r.ok:
			res.fail("%s: payload differs from the first one served for this key", configName(keys.all[r.key]))
		case badKey[r.key]:
			res.failed++
		default:
			res.configs++
		}
	}
	if res.attempted == 0 {
		return errors.New("no requests completed")
	}
	return nil
}

// runService: set-up primes the stage store; the timed phase is one session
// of o.seconds against a fresh daemon over it.
func runService(o *options) (*outcome, error) {
	res := &outcome{}
	stageDir := filepath.Join(o.workdir, "stages")
	keys, setup, err := serviceSetup(o, stageDir)
	if err != nil {
		return nil, err
	}
	res.setup = setup
	startTimedPhase()
	s, err := runSession(o, keys, stageDir, o.seconds, false)
	if err != nil {
		return nil, err
	}
	res.peakRSSMB = peakRSSMB()
	res.wall, res.cpu = s.wall, s.cpu
	if err := checkSession(res, s, keys, map[string]string{}); err != nil {
		return nil, err
	}
	if res.counts, err = serviceCounts(s, stageDir); err != nil {
		return nil, err
	}
	return res, nil
}

// serviceCounts are the session's deterministic counts: the stage
// executions per staged job (from X-Stage-Hits), the payload bytes of one
// response per key, and the stage store's entries afterwards.
func serviceCounts(s *session, stageDir string) ([]count, error) {
	bytesTotal := 0
	seen := map[int]bool{}
	for _, f := range s.first {
		for k, b := range f {
			if !seen[k] {
				seen[k] = true
				bytesTotal += len(b)
			}
		}
	}
	runs, jobs := 0, 0
	for _, r := range s.requests {
		if r.stageRuns >= 0 {
			runs += r.stageRuns
			jobs++
		}
	}
	st, err := castore.Open(stageDir)
	if err != nil {
		return nil, err
	}
	entries, err := st.Len()
	if err != nil {
		return nil, err
	}
	return []count{
		{"stage.execs_per_point", float64(runs) / float64(max(jobs, 1))},
		{"castore.entries", float64(entries)},
		{"report.bytes", float64(bytesTotal)},
	}, nil
}
