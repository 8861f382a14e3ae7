package serve

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmi3d/internal/circuits"
	"tmi3d/internal/flow"
	"tmi3d/internal/power"
	"tmi3d/internal/stage"
	"tmi3d/internal/tech"
)

// Tests that assert caching serve real FPU flows at scale 0.05 through the
// engine and compare payloads with the direct encoding; tests of admission
// alone (queueing, rejection, validation) swap in a stub job body.
const fpuQuery = "circuit=FPU&scale=0.05"

type reportFunc = func(flow.Config) ([]byte, stage.RunStats, error)

// directPayload is the byte-identity reference: the canonical encoding of a
// monolithic flow.Run.
func directPayload(t *testing.T, query string) []byte {
	t.Helper()
	cfg, err := ParseConfig(mustQuery(query))
	if err != nil {
		t.Fatal(err)
	}
	r, err := flow.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := flow.EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// stubResult builds a small deterministic result for a config — the serving
// layer must treat it exactly like a real flow result.
func stubResult(cfg flow.Config) *flow.Result {
	return &flow.Result{
		Config:    cfg,
		Footprint: 100 + float64(cfg.Seed),
		DieW:      10, DieH: 10 + float64(cfg.Mode),
		NumCells: 42,
		WNS:      1.5,
		ClockPs:  400,
		Power: &power.Report{
			Total: 2, Cell: 1, Net: 0.5, Wire: 0.3, Pin: 0.2, Leakage: 0.5,
			ByFunction: map[string]float64{"DFF": 0.5, "NAND2": 0.5},
		},
		StageTimes: []flow.StageTime{{Stage: "synth", D: time.Millisecond}},
	}
}

// stubReport is a stand-in job body returning the stub result's encoding.
func stubReport(cfg flow.Config) ([]byte, stage.RunStats, error) {
	r := stubResult(cfg)
	data, err := flow.EncodeResult(r)
	return data, stage.RunStats{StageTimes: r.StageTimes}, err
}

// newTestServer starts a daemon; wrap, when non-nil, replaces the job body
// given the engine's (typically wrapping it to block, count or fail).
func newTestServer(t *testing.T, cfg Config, wrap func(report reportFunc) reportFunc) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		s.report = wrap(s.report)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestSingleflight64Workers is the acceptance-criterion test: 64 concurrent
// identical requests cost exactly one report execution, every response is
// byte-identical to the direct encoding, and the metrics show the traffic.
func TestSingleflight64Workers(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8},
		func(report reportFunc) reportFunc {
			return func(cfg flow.Config) ([]byte, stage.RunStats, error) {
				runs.Add(1)
				<-release
				return report(cfg)
			}
		})

	const n = 64
	query := fpuQuery + "&seed=7"
	url := ts.URL + "/v1/ppa?" + query
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	// Hold the one job until every request has arrived (each must miss the
	// cache and join), then let it finish — maximal contention, zero luck.
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.CounterValue("tmi3d_cache_misses_total", "") < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %v misses arrived", s.metrics.CounterValue("tmi3d_cache_misses_total", ""))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("job executions = %d, want exactly 1", got)
	}
	if got := s.engine.Counters()["report"].Executions; got != 1 {
		t.Fatalf("report executions = %d, want exactly 1", got)
	}
	want := directPayload(t, query)
	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d (%s)", i, codes[i], bodies[i])
		}
		if string(bodies[i]) != string(want) {
			t.Fatalf("request %d body differs from direct encoding:\n%s\nvs\n%s", i, bodies[i], want)
		}
	}
	if joins := s.metrics.CounterValue("tmi3d_singleflight_joins_total", ""); joins != n-1 {
		t.Fatalf("singleflight joins = %v, want %d", joins, n-1)
	}

	// One more request now hits the engine's memory tier; /metrics must
	// report non-zero hit/miss and latency counters.
	code, hdr, _ := get(t, url)
	if code != 200 || hdr.Get("X-Cache") != "lru" {
		t.Fatalf("warm request: status %d cache %q", code, hdr.Get("X-Cache"))
	}
	_, _, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`tmi3d_cache_hits_total{tier="lru"} 1`,
		"tmi3d_cache_misses_total 64",
		`tmi3d_request_seconds_count{endpoint="ppa"} 65`,
		"tmi3d_flow_runs_total 1",
		`tmi3d_flow_stage_seconds_total{stage="synth"}`,
		`tmi3d_stage_executions_total{stage="report"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func mustQuery(raw string) map[string][]string {
	q := map[string][]string{}
	for _, kv := range strings.Split(raw, "&") {
		parts := strings.SplitN(kv, "=", 2)
		q[parts[0]] = append(q[parts[0]], parts[1])
	}
	return q
}

// TestQueueFullReturns429 fills one worker and a depth-1 queue with blocked
// jobs; the next distinct request must be rejected with 429 and an estimate
// in Retry-After — backpressure, not an invisible backlog.
func TestQueueFullReturns429(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1},
		func(reportFunc) reportFunc {
			return func(cfg flow.Config) ([]byte, stage.RunStats, error) {
				started <- struct{}{}
				<-release
				return stubReport(cfg)
			}
		})

	urlFor := func(seed int) string {
		return ts.URL + "/v1/ppa?circuit=FPU&scale=0.1&seed=" + strconv.Itoa(seed)
	}
	results := make(chan int, 2)
	go func() { c, _, _ := get(t, urlFor(1)); results <- c }()
	<-started // job 1 is running in the single worker
	go func() { c, _, _ := get(t, urlFor(2)); results <- c }()
	// Wait until job 2 occupies the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		queued := s.queued
		s.mu.Unlock()
		if queued == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}

	code, hdr, body := get(t, urlFor(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d (%s), want 429", code, body)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", hdr.Get("Retry-After"))
	}
	if v := s.metrics.CounterValue("tmi3d_queue_rejected_total", ""); v != 1 {
		t.Fatalf("rejected counter = %v, want 1", v)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if c := <-results; c != 200 {
			t.Fatalf("blocked request finished with %d", c)
		}
	}
}

// TestDeadlineExceeded: a request that times out gets 504, but the flow
// keeps running and warms the cache for the retry.
func TestDeadlineExceeded(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4},
		func(report reportFunc) reportFunc {
			return func(cfg flow.Config) ([]byte, stage.RunStats, error) {
				<-release
				return report(cfg)
			}
		})
	url := ts.URL + "/v1/ppa?" + fpuQuery
	code, _, body := get(t, url+"&timeout_ms=50")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", code, body)
	}
	close(release)
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, hdr, body := get(t, url)
		if code == 200 {
			// A poll can land while the released job is still in the
			// inflight table and join it; that 200 doesn't yet prove the
			// cache was warmed, so keep polling until a cache tier answers.
			if src := hdr.Get("X-Cache"); src == "lru" {
				if string(body) != string(directPayload(t, fpuQuery)) {
					t.Fatal("warmed entry differs from the direct encoding")
				}
				break
			} else if src != "join" {
				t.Fatalf("post-timeout hit came from %q, want a cache tier", src)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned job never warmed the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.engine.Counters()["report"].Executions; got != 1 {
		t.Fatalf("report executions = %d, want 1", got)
	}
}

// TestRestartServesFromDisk: a result computed by one daemon process is
// served by the next from the persistent store without re-running the flow.
func TestRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{StoreDir: dir, Workers: 2}, nil)
	code, hdr, body1 := get(t, ts1.URL+"/v1/ppa?"+fpuQuery)
	if code != 200 || hdr.Get("X-Cache") != "run" {
		t.Fatalf("first run: status %d cache %q (%s)", code, hdr.Get("X-Cache"), body1)
	}
	if string(body1) != string(directPayload(t, fpuQuery)) {
		t.Fatal("first run differs from the direct encoding")
	}

	// The new process's memory tier is empty, so a job reads the report
	// from the store: it executes no stage.
	s2, ts2 := newTestServer(t, Config{StoreDir: dir, Workers: 2}, nil)
	code, hdr, body2 := get(t, ts2.URL+"/v1/ppa?"+fpuQuery)
	if code != 200 || hdr.Get("X-Stage-Hits") != "mem=0 disk=1 run=0" {
		t.Fatalf("restart: status %d cache %q stage hits %q", code, hdr.Get("X-Cache"), hdr.Get("X-Stage-Hits"))
	}
	if string(body1) != string(body2) {
		t.Fatal("restart served different bytes")
	}
	for name, c := range s2.engine.Counters() {
		if c.Executions != 0 {
			t.Errorf("restart executed %s %d times", name, c.Executions)
		}
	}
}

func TestCompareEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8},
		func(reportFunc) reportFunc {
			return func(cfg flow.Config) ([]byte, stage.RunStats, error) {
				r := stubResult(cfg)
				if cfg.Mode.Is3D() {
					r.Footprint = 50 // -50% vs the 2D stub's 100
				}
				data, err := flow.EncodeResult(r)
				return data, stage.RunStats{}, err
			}
		})
	code, _, body := get(t, ts.URL+"/v1/compare?circuit=LDPC&scale=0.1")
	if code != 200 {
		t.Fatalf("compare: %d (%s)", code, body)
	}
	var resp struct {
		D2   json.RawMessage   `json:"2d"`
		TMI  json.RawMessage   `json:"tmi"`
		Diff map[string]string `json:"diff"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("compare response: %v\n%s", err, body)
	}
	if len(resp.D2) == 0 || len(resp.TMI) == 0 {
		t.Fatal("compare response missing sides")
	}
	if resp.Diff["footprint"] != "-50.0%" {
		t.Fatalf("footprint diff = %q, want -50.0%%", resp.Diff["footprint"])
	}
	// mode= is meaningless on compare and must be rejected.
	code, _, _ = get(t, ts.URL+"/v1/compare?circuit=LDPC&scale=0.1&mode=tmi")
	if code != http.StatusBadRequest {
		t.Fatalf("compare with mode=: status %d, want 400", code)
	}
}

func TestPostConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2}, nil)
	base, err := circuits.TargetClockPs("FPU", tech.N45)
	if err != nil {
		t.Fatal(err)
	}
	cfg := flow.Config{Circuit: "FPU", Scale: 0.05, ClockPs: base*1.1 + 0.25}
	body, _ := json.Marshal(cfg)
	resp, err := http.Post(ts.URL+"/v1/ppa", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("POST: %d (%s)", resp.StatusCode, data)
	}
	query := ConfigQuery(cfg).Encode()
	if string(data) != string(directPayload(t, query)) {
		t.Fatal("POST payload differs from the direct encoding")
	}
	// A GET with the equivalent query shares the POST's cache entry.
	code, hdr, got := get(t, ts.URL+"/v1/ppa?"+query)
	if code != 200 || hdr.Get("X-Cache") != "lru" {
		t.Fatalf("GET after POST: status %d cache %q", code, hdr.Get("X-Cache"))
	}
	if string(got) != string(data) {
		t.Fatal("GET served different bytes than the POST")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxScale: 0.5},
		func(reportFunc) reportFunc { return stubReport })
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/v1/ppa", 400},                        // missing circuit
		{"/v1/ppa?circuit=NOPE", 400},           // unknown circuit
		{"/v1/ppa?circuit=FPU&clocks=5", 400},   // typoed param
		{"/v1/ppa?circuit=FPU&scale=0.9", 400},  // above MaxScale
		{"/v1/ppa?circuit=FPU&mode=4d", 400},    // bad mode
		{"/v1/experiment/table99", 404},         // unknown experiment
		{"/v1/experiment/table1?scale=-1", 400}, // bad scale
		{"/v1/experiment/table1?sead=7", 400},   // typoed experiment param
		{"/v1/experiment/table1?mode=tmi", 400}, // param not on this endpoint
		{"/nope", 404},                          // unknown route
	} {
		code, _, body := get(t, ts.URL+tc.path)
		if code != tc.code {
			t.Errorf("%s: status %d (%s), want %d", tc.path, code, body, tc.code)
		}
	}
}

// TestPostRejectsBadEnums: the POST body decodes enum fields as bare ints;
// out-of-range values must be a 400 at the boundary, never reach the flow
// (which panics on unknown nodes), and never crash the daemon.
func TestPostRejectsBadEnums(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{Workers: 1},
		func(reportFunc) reportFunc {
			return func(cfg flow.Config) ([]byte, stage.RunStats, error) {
				runs.Add(1)
				return stubReport(cfg)
			}
		})
	for _, body := range []string{
		`{"circuit":"AES","node":5}`,
		`{"circuit":"AES","node":-1}`,
		`{"circuit":"AES","mode":9}`,
		`{"circuit":"AES","lint":3}`,
		`{"circuit":"AES","equiv":-1}`,
		`{"circuit":"AES","resistivity_scale":{"12":2.0}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/ppa", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d (%s), want 400", body, resp.StatusCode, data)
		}
	}
	if got := runs.Load(); got != 0 {
		t.Fatalf("bad POST bodies reached the flow %d times", got)
	}
	// The daemon is still healthy afterwards.
	if code, _, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz after bad POSTs: %d", code)
	}
}

// TestJobPanicIsAnError: a panic inside a job must surface as that request's
// 500 and leave the worker pool serving subsequent requests.
func TestJobPanicIsAnError(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1},
		func(report reportFunc) reportFunc {
			return func(cfg flow.Config) ([]byte, stage.RunStats, error) {
				if cfg.Seed == 666 {
					panic("boom")
				}
				return report(cfg)
			}
		})
	code, _, body := get(t, ts.URL+"/v1/ppa?"+fpuQuery+"&seed=666")
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "panicked") {
		t.Fatalf("panicking job: status %d (%s), want 500 mentioning the panic", code, body)
	}
	code, _, body = get(t, ts.URL+"/v1/ppa?"+fpuQuery+"&seed=1")
	if code != 200 {
		t.Fatalf("request after panic: status %d (%s); worker pool did not survive", code, body)
	}
}

// TestMetricsScrapeDuringSubmit regression-tests the lock ordering between
// the job-table mutex and the metrics registry: singleflight joins and queue
// rejections bump counters on the submit path while a concurrent /metrics
// scrape samples the queue-depth gauge. With the counters bumped under s.mu
// this AB-BA deadlocked; the test hangs (and times out) on regression.
func TestMetricsScrapeDuringSubmit(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1},
		func(reportFunc) reportFunc {
			return func(cfg flow.Config) ([]byte, stage.RunStats, error) {
				<-release
				return stubReport(cfg)
			}
		})
	// Unblock the workers before the server cleanup drains them (cleanups
	// run last-registered-first).
	t.Cleanup(func() { close(release) })

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				client := &http.Client{Timeout: 5 * time.Second}
				for i := 0; i < 40; i++ {
					// Scrapes interleave with joins (hot key occupies the
					// worker) and queue-full rejections (cold keys).
					for _, url := range []string{
						ts.URL + "/metrics",
						ts.URL + "/v1/ppa?circuit=FPU&scale=0.1&timeout_ms=1",
						ts.URL + "/v1/ppa?circuit=FPU&scale=0.1&seed=" + strconv.Itoa(g*100+i) + "&timeout_ms=1",
					} {
						if resp, err := client.Get(url); err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("scrape vs submit deadlocked")
	}
}

func TestExperimentStatic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	code, hdr, body := get(t, ts.URL+"/v1/experiment/table1")
	if code != 200 {
		t.Fatalf("table1: %d (%s)", code, body)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("content type %q", hdr.Get("Content-Type"))
	}
	if len(body) == 0 {
		t.Fatal("empty table")
	}
	// Second fetch is a cache hit with identical bytes.
	code, hdr2, body2 := get(t, ts.URL+"/v1/experiment/table1")
	if code != 200 || hdr2.Get("X-Cache") == "run" {
		t.Fatalf("repeat fetch: status %d cache %q", code, hdr2.Get("X-Cache"))
	}
	if string(body) != string(body2) {
		t.Fatal("table render not byte-stable")
	}
}

// TestStoreFaultRecomputes: a store that breaks after the daemon opened it
// costs recomputation, not failed requests. The ppa payload still equals the
// direct encoding, the failures are counted and logged, and an experiment
// render whose store read fails is computed instead of answering 500.
func TestStoreFaultRecomputes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	var log syncBuffer
	s, ts := newTestServer(t, Config{StoreDir: dir, Workers: 2, LogWriter: &log}, nil)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, body := get(t, ts.URL+"/v1/ppa?"+fpuQuery)
	if code != 200 {
		t.Fatalf("ppa over a broken store: status %d (%s)", code, body)
	}
	if string(body) != string(directPayload(t, fpuQuery)) {
		t.Fatal("ppa over a broken store differs from the direct encoding")
	}
	if v := s.metrics.CounterValue("tmi3d_stage_store_errors_total", `stage="report"`); v < 1 {
		t.Errorf("tmi3d_stage_store_errors_total{stage=\"report\"} = %v, want >= 1", v)
	}
	if !strings.Contains(log.String(), `"level":"WARN"`) {
		t.Errorf("no WARN line logged for the store errors:\n%s", log.String())
	}
	code, _, body = get(t, ts.URL+"/v1/experiment/table1")
	if code != 200 || len(body) == 0 {
		t.Fatalf("experiment over a broken store: status %d (%s)", code, body)
	}
}

// TestExperimentsShareFlowsThroughEngine: the daemon keeps no study between
// renders, yet a second table over the same flows executes no report stage —
// the engine's tiers serve every flow.
func TestExperimentsShareFlowsThroughEngine(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1}, nil)
	code, _, body := get(t, ts.URL+"/v1/experiment/table4?scale=0.05")
	if code != 200 {
		t.Fatalf("table4: status %d (%s)", code, body)
	}
	before := s.engine.Counters()["report"].Executions
	if before == 0 {
		t.Fatal("table4 executed no report stage")
	}
	code, _, body = get(t, ts.URL+"/v1/experiment/table13?scale=0.05")
	if code != 200 {
		t.Fatalf("table13: status %d (%s)", code, body)
	}
	if after := s.engine.Counters()["report"].Executions; after != before {
		t.Errorf("table13 executed %d report stages after table4, want 0", after-before)
	}
}

// syncBuffer is a log sink safe for the daemon's concurrent writers.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3}, nil)
	code, _, body := get(t, ts.URL+"/healthz")
	if code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["workers"] != float64(3) {
		t.Fatalf("healthz body: %s", body)
	}
}

// TestGracefulShutdown uses a real listener: Shutdown must stop accepting
// new connections while the in-flight request completes successfully and
// its report still lands in the persistent store.
func TestGracefulShutdown(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	dir := t.TempDir()
	s, err := NewServer(Config{StoreDir: dir, Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	report := s.report
	s.report = func(cfg flow.Config) ([]byte, stage.RunStats, error) {
		started <- struct{}{}
		<-release
		return report(cfg)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	addr := l.Addr().String()

	type reply struct {
		code int
		body []byte
		err  error
	}
	inflight := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/v1/ppa?" + fpuQuery)
		if err != nil {
			inflight <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inflight <- reply{code: resp.StatusCode, body: b}
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// The listener must stop accepting while the in-flight job drains.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	r := <-inflight
	if r.err != nil || r.code != 200 {
		t.Fatalf("in-flight request: code=%d err=%v", r.code, r.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if string(r.body) != string(directPayload(t, fpuQuery)) {
		t.Fatal("drained request's payload differs from the direct encoding")
	}
	// The drained job's report persisted: a fresh engine reads it from disk.
	eng, err := stage.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseConfig(mustQuery(fpuQuery))
	if err != nil {
		t.Fatal(err)
	}
	data, stats, err := eng.Report(cfg)
	if err != nil || stats.Executions != 0 || string(data) != string(r.body) {
		t.Fatalf("after drain: Report stats %+v err %v, want the served payload from disk", stats, err)
	}
}
