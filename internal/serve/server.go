package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"tmi3d/internal/flow"
	"tmi3d/internal/lint"
	"tmi3d/internal/report"
	"tmi3d/internal/stage"
	"tmi3d/internal/tech"
)

// Config parameterizes a Server.
type Config struct {
	// StoreDir roots the daemon's persistent store: the stage engine's
	// per-stage artifacts (the report artifact is the /v1/ppa payload) and
	// the experiment renders. Required unless StageDir is set.
	StoreDir string
	// StageDir, when set, roots the store instead of StoreDir.
	StageDir string
	// Workers bounds concurrently executing jobs; 0 = GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs admitted but not yet running; a full queue
	// rejects new work with 429 + Retry-After. 0 = 64.
	QueueDepth int
	// RequestTimeout is the per-request deadline; a request may shorten (but
	// not extend) it with ?timeout_ms=. 0 = 15 minutes.
	RequestTimeout time.Duration
	// MaxScale rejects configurations above this circuit scale (a scale-1
	// AES flow is minutes of compute; an accidental scale-10 must not be
	// admitted). 0 = 1.0.
	MaxScale float64
	// LogWriter receives the structured (JSON lines) request log; nil
	// disables logging.
	LogWriter io.Writer
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Minute
	}
	if c.MaxScale <= 0 {
		c.MaxScale = 1.0
	}
}

// job is one unit of compute admitted to the queue. Concurrent requests for
// the same key share one job (singleflight): the first creates and enqueues
// it, latecomers wait on done. The job outlives any waiter — a request whose
// deadline expires abandons the wait, but the job still completes and warms
// the engine's caches.
type job struct {
	key  string
	fn   func() ([]byte, error)
	done chan struct{}
	data []byte
	err  error
}

// Server is the PPA daemon: HTTP front end and admission control (a bounded
// worker pool behind a singleflight job table) in front of one stage engine,
// which is both its flow executor and its cache.
type Server struct {
	cfg     Config
	engine  *stage.Engine
	metrics *Metrics
	logger  *slog.Logger
	start   time.Time

	mu       sync.Mutex
	jobs     map[string]*job
	queue    chan *job
	queued   int // jobs admitted, not yet finished (queue depth gauge)
	draining bool
	wg       sync.WaitGroup

	// ewmaSec tracks recent job cost for the Retry-After estimate.
	ewmaMu  sync.Mutex
	ewmaSec float64

	httpSrv *http.Server

	// report is the ppa job body, engine.Report; tests wrap it to inject
	// latency or failures.
	report func(flow.Config) ([]byte, stage.RunStats, error)
}

// NewServer opens the engine over the store and starts the worker pool. The
// server accepts work immediately through Handler(); Serve attaches a
// listener.
func NewServer(cfg Config) (*Server, error) {
	cfg.fill()
	dir := cfg.StageDir
	if dir == "" {
		dir = cfg.StoreDir
	}
	if dir == "" {
		return nil, errors.New("serve: a store directory is required")
	}
	eng, err := stage.New(dir)
	if err != nil {
		return nil, err
	}
	logw := cfg.LogWriter
	if logw == nil {
		logw = io.Discard
	}
	s := &Server{
		cfg:     cfg,
		engine:  eng,
		report:  eng.Report,
		metrics: NewMetrics(),
		logger:  slog.New(slog.NewJSONHandler(logw, nil)),
		start:   time.Now(),
		jobs:    map[string]*job{},
		queue:   make(chan *job, cfg.QueueDepth),
		ewmaSec: 30,
	}
	s.registerMetrics()
	eng.Store().OnQuarantine = func(path string, reason error) {
		s.metrics.Add("tmi3d_store_quarantined_total", "", 1)
		s.logger.Warn("store entry quarantined", "path", path, "reason", reason.Error())
	}
	// The callback runs off the engine's lock; castore is lock-free — no
	// ordering against Metrics.mu (see the submit comment below). Stage names
	// are bare identifiers, so quoting them needs no escaping.
	eng.OnEvent(func(stageName, ev string) {
		switch ev {
		case stage.EventMemHit:
			s.metrics.Add("tmi3d_stage_hits_total", `stage="`+stageName+`",tier="mem"`, 1)
		case stage.EventDiskHit:
			s.metrics.Add("tmi3d_stage_hits_total", `stage="`+stageName+`",tier="disk"`, 1)
		case stage.EventMiss:
			s.metrics.Add("tmi3d_stage_misses_total", `stage="`+stageName+`"`, 1)
		case stage.EventExecute:
			s.metrics.Add("tmi3d_stage_executions_total", `stage="`+stageName+`"`, 1)
		case stage.EventStoreError:
			s.metrics.Add("tmi3d_stage_store_errors_total", `stage="`+stageName+`"`, 1)
			s.logger.Warn("stage store read or write failed; artifact recomputed or not persisted", "stage", stageName)
		}
	})
	s.httpSrv = &http.Server{Handler: s.Handler()}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) registerMetrics() {
	m := s.metrics
	m.Counter("tmi3d_requests_total", "HTTP requests by endpoint and status code.")
	m.Counter("tmi3d_cache_hits_total", "Cache hits answered without a job, by tier: lru (/v1/ppa, the engine's memory tier) or disk (experiment renders).")
	m.Counter("tmi3d_cache_misses_total", "Requests that needed a job.")
	m.Counter("tmi3d_singleflight_joins_total", "Requests that joined an in-flight identical job instead of enqueuing their own.")
	m.Counter("tmi3d_queue_rejected_total", "Jobs rejected with 429 because the queue was full.")
	m.Counter("tmi3d_flow_runs_total", "Flow jobs completed.")
	m.Counter("tmi3d_flow_errors_total", "Flow jobs that returned an error.")
	m.Counter("tmi3d_flow_stage_seconds_total", "Cumulative wall-clock seconds per executed flow stage, from the job's stage profile.")
	m.Counter("tmi3d_store_quarantined_total", "Corrupted store entries quarantined on load.")
	m.Gauge("tmi3d_queue_depth", "Jobs admitted and not yet finished.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.queued)
	})
	m.Gauge("tmi3d_uptime_seconds", "Seconds since the daemon started.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	m.Histogram("tmi3d_request_seconds", "Request latency by endpoint.",
		[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300})
	m.Counter("tmi3d_stage_hits_total", "Staged-flow artifact cache hits by stage and tier (mem or disk).")
	m.Counter("tmi3d_stage_misses_total", "Staged-flow artifact cache misses by stage (a stage execution followed).")
	m.Counter("tmi3d_stage_executions_total", "Staged-flow stage-body executions by stage.")
	m.Counter("tmi3d_stage_store_errors_total", "Failed store reads (served as misses) and writes (artifact kept in memory only) by stage.")
	m.Gauge("tmi3d_stage_store_entries", "Live entries in the store.", func() float64 {
		n, _ := s.engine.StoreLen()
		return float64(n)
	})
}

// Handler returns the daemon's HTTP handler (also usable under a test
// server or an external net/http server).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/ppa", s.instrument("ppa", s.handlePPA))
	mux.HandleFunc("POST /v1/ppa", s.instrument("ppa", s.handlePPA))
	mux.HandleFunc("GET /v1/compare", s.instrument("compare", s.handleCompare))
	mux.HandleFunc("GET /v1/experiment/{id}", s.instrument("experiment", s.handleExperiment))
	return mux
}

// Serve runs the daemon on l until Shutdown; it returns nil after a clean
// shutdown (mapping http.ErrServerClosed, like net/http callers expect).
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the daemon: stop accepting connections, wait for in-
// flight requests (bounded by ctx), then let the workers finish every
// admitted job — a queued flow is a promise; its report still lands in the
// store for the next process.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// ---- job execution ----

var (
	errBusy     = errors.New("queue full")
	errDraining = errors.New("server draining")
)

// runJob executes a job's compute closure, converting a panic into a job
// error: a malformed configuration that trips an internal invariant must
// cost its own request a 500, not crash the daemon's worker pool.
func (s *Server) runJob(j *job) (data []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.logger.Error("job panicked",
				"key", j.key, "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			err = fmt.Errorf("internal error: job panicked: %v", p)
		}
	}()
	return j.fn()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		t0 := time.Now()
		data, err := s.runJob(j)
		s.mu.Lock()
		delete(s.jobs, j.key)
		s.queued--
		s.mu.Unlock()
		j.data, j.err = data, err
		close(j.done)
		s.observeJob(time.Since(t0).Seconds())
	}
}

func (s *Server) observeJob(sec float64) {
	s.ewmaMu.Lock()
	s.ewmaSec = 0.7*s.ewmaSec + 0.3*sec
	s.ewmaMu.Unlock()
}

// retryAfterSeconds estimates when queue capacity frees up: recent job cost
// times the backlog per worker, clamped to a sane header range.
func (s *Server) retryAfterSeconds() int {
	s.ewmaMu.Lock()
	ewma := s.ewmaSec
	s.ewmaMu.Unlock()
	s.mu.Lock()
	backlog := s.queued
	s.mu.Unlock()
	est := int(math.Ceil(ewma * float64(backlog+1) / float64(s.cfg.Workers)))
	if est < 1 {
		est = 1
	}
	if est > 600 {
		est = 600
	}
	return est
}

// submit joins an existing job for key (joined=true) or admits a new one.
// The bounded queue is the backpressure point: a full queue rejects
// immediately rather than building an invisible backlog.
//
// Metrics must be touched only after s.mu is released: the queue-depth gauge
// samples s.mu from under Metrics.mu at scrape time, so calling Metrics.Add
// while holding s.mu would order the two locks both ways (AB-BA deadlock).
func (s *Server) submit(key string, fn func() ([]byte, error)) (*job, bool, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false, errDraining
	}
	if j, ok := s.jobs[key]; ok {
		s.mu.Unlock()
		s.metrics.Add("tmi3d_singleflight_joins_total", "", 1)
		return j, true, nil
	}
	j := &job{key: key, fn: fn, done: make(chan struct{})}
	select {
	case s.queue <- j:
		s.jobs[key] = j
		s.queued++
		s.mu.Unlock()
		return j, false, nil
	default:
		s.mu.Unlock()
		s.metrics.Add("tmi3d_queue_rejected_total", "", 1)
		return nil, false, errBusy
	}
}

// ppa serves one configuration's payload: the report in the engine's memory
// tier (source lru), else a job, which reads the report from the store or
// executes the stages it lacks.
func (s *Server) ppa(ctx context.Context, cfg flow.Config, stageHits *string) ([]byte, string, error) {
	key := cfg.Key()
	if data, ok := s.engine.Cached(key); ok {
		s.metrics.Add("tmi3d_cache_hits_total", `tier="lru"`, 1)
		return data, "lru", nil
	}
	return s.compute(ctx, "v1|ppa|"+key, s.ppaJob(cfg, stageHits))
}

// compute runs fn as the job for key after a cache miss. source reports run
// (this request admitted the job) or join (deduplicated onto another
// request's job).
func (s *Server) compute(ctx context.Context, key string, fn func() ([]byte, error)) (data []byte, source string, err error) {
	s.metrics.Add("tmi3d_cache_misses_total", "", 1)
	j, joined, err := s.submit(key, fn)
	if err != nil {
		return nil, "", err
	}
	source = "run"
	if joined {
		source = "join"
	}
	select {
	case <-j.done:
		return j.data, source, j.err
	case <-ctx.Done():
		return nil, source, ctx.Err()
	}
}

// ---- HTTP plumbing ----

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-request deadline, latency
// histogram, request counter and structured log line.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		timeout := s.cfg.RequestTimeout
		if v := r.URL.Query().Get("timeout_ms"); v != "" {
			if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
				if d := time.Duration(ms) * time.Millisecond; d < timeout {
					timeout = d
				}
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r.WithContext(ctx))
		sec := time.Since(t0).Seconds()
		label := fmt.Sprintf(`endpoint=%q`, endpoint)
		s.metrics.Observe("tmi3d_request_seconds", label, sec)
		s.metrics.Add("tmi3d_requests_total",
			fmt.Sprintf(`endpoint=%q,code="%d"`, endpoint, rec.status), 1)
		s.logger.Info("request",
			"method", r.Method, "path", r.URL.Path, "query", r.URL.RawQuery,
			"status", rec.status, "ms", math.Round(sec*1e6)/1e3,
			"cache", rec.Header().Get("X-Cache"))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// writeComputeError maps ppa/compute failures onto HTTP semantics.
func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "queue full; retry later"})
	case errors.Is(err, errDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server shutting down"})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorBody{
			Error: "deadline exceeded; the flow keeps running and the result will be cached"})
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to write.
		w.WriteHeader(499)
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// ---- endpoints ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queued := s.queued
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"uptime_s":    int64(time.Since(s.start).Seconds()),
		"workers":     s.cfg.Workers,
		"queue_depth": queued,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteText(w)
}

// maxBodyBytes caps a POST /v1/ppa body; an encoded flow.Config is well
// under a kilobyte.
const maxBodyBytes = 1 << 20

// requestConfig extracts the flow configuration: query parameters on GET, a
// JSON flow.Config body on POST (the round-trippable encoding) — one object,
// then nothing but whitespace, within maxBodyBytes.
func requestConfig(w http.ResponseWriter, r *http.Request) (flow.Config, error) {
	if r.Method == http.MethodPost {
		var cfg flow.Config
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return cfg, fmt.Errorf("body: %w", err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return cfg, fmt.Errorf("body: data after the config object")
		}
		if cfg.Scale == 0 {
			cfg.Scale = 1.0
		}
		// -0 would key apart from the default it means, as in ParseConfig.
		for _, f := range []*float64{&cfg.ClockPs, &cfg.Util, &cfg.PinCapScale, &cfg.Activities.PrimaryInput, &cfg.Activities.SeqOutput} {
			if *f == 0 {
				*f = 0
			}
		}
		// Re-parse through the query surface so POST obeys the same
		// circuit validation as GET.
		if _, err := ParseConfig(ConfigQuery(flow.Config{Circuit: cfg.Circuit, Scale: cfg.Scale})); err != nil {
			return cfg, err
		}
		// JSON decodes the enum fields as bare ints, and the flow panics on
		// values outside the known sets — reject them at the boundary.
		switch cfg.Node {
		case tech.N45, tech.N7:
		default:
			return cfg, fmt.Errorf("body: unknown node %d (45nm=%d, 7nm=%d)", int(cfg.Node), int(tech.N45), int(tech.N7))
		}
		switch cfg.Mode {
		case tech.Mode2D, tech.ModeTMI, tech.ModeTMIM:
		default:
			return cfg, fmt.Errorf("body: unknown mode %d (2d=%d, tmi=%d, tmim=%d)",
				int(cfg.Mode), int(tech.Mode2D), int(tech.ModeTMI), int(tech.ModeTMIM))
		}
		for _, g := range []struct {
			name string
			mode lint.GateMode
		}{{"lint", cfg.Lint}, {"equiv", cfg.Equiv}} {
			switch g.mode {
			case lint.GateEnforce, lint.GateWarnOnly, lint.GateOff:
			default:
				return cfg, fmt.Errorf("body: unknown %s gate mode %d (enforce=%d, warn=%d, off=%d)",
					g.name, int(g.mode), int(lint.GateEnforce), int(lint.GateWarnOnly), int(lint.GateOff))
			}
		}
		for class := range cfg.ResistivityScale {
			switch class {
			case tech.ClassM1, tech.ClassLocal, tech.ClassIntermediate, tech.ClassGlobal:
			default:
				return cfg, fmt.Errorf("body: unknown resistivity_scale layer class %d", int(class))
			}
		}
		return cfg, checkRanges(cfg)
	}
	return ParseConfig(r.URL.Query())
}

// intraWorkers splits the cores between the job pool and each flow's
// intra-flow worker fleet so pool × intra never oversubscribes the machine.
// The budget is byte-identity-neutral (flow keeps Workers out of the cache
// key), so it never reaches the client-visible result.
func (s *Server) intraWorkers() int {
	intra := runtime.GOMAXPROCS(0) / s.cfg.Workers
	if intra < 1 {
		intra = 1
	}
	return intra
}

// ppaJob builds the job body for one configuration: the engine's report
// artifact, with the run's stage profile folded into the metrics. stageHits,
// when non-nil, receives the run's cache summary — only the request whose
// closure actually executes sees it populated, which is exactly the request
// answering with X-Cache: run.
func (s *Server) ppaJob(cfg flow.Config, stageHits *string) func() ([]byte, error) {
	return func() ([]byte, error) {
		cfg.Workers = s.intraWorkers()
		data, stats, err := s.report(cfg)
		if err != nil {
			s.metrics.Add("tmi3d_flow_errors_total", "", 1)
			return nil, err
		}
		s.metrics.Add("tmi3d_flow_runs_total", "", 1)
		for _, st := range stats.StageTimes {
			s.metrics.Add("tmi3d_flow_stage_seconds_total",
				fmt.Sprintf(`stage=%q`, st.Stage), st.D.Seconds())
		}
		if stageHits != nil {
			*stageHits = stats.Summary()
		}
		return data, nil
	}
}

func (s *Server) handlePPA(w http.ResponseWriter, r *http.Request) {
	cfg, err := requestConfig(w, r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if cfg.Scale > s.cfg.MaxScale {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("scale %g exceeds server limit %g", cfg.Scale, s.cfg.MaxScale)})
		return
	}
	var stageHits string
	data, source, err := s.ppa(r.Context(), cfg, &stageHits)
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	w.Header().Set("X-Cache", source)
	if stageHits != "" {
		// Populated only when this request's own closure ran the job
		// (close(j.done) orders the write before this read).
		w.Header().Set("X-Stage-Hits", stageHits)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// compareDiff is the rendered iso-performance delta. Percentages travel as
// the paper's strings ("-31.2%", "n/a" for undefined deltas over a zero
// baseline) — JSON has no NaN.
type compareDiff struct {
	Footprint string `json:"footprint"`
	WL        string `json:"wl"`
	Total     string `json:"total"`
	Cell      string `json:"cell"`
	Net       string `json:"net"`
	Leakage   string `json:"leakage"`
	Buffers   string `json:"buffers"`
}

type compareResponse struct {
	D2   json.RawMessage `json:"2d"`
	TMI  json.RawMessage `json:"tmi"`
	Diff compareDiff     `json:"diff"`
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	cfg, err := ParseConfig(r.URL.Query())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if cfg.Mode.Is3D() {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "compare fixes the modes; do not pass mode="})
		return
	}
	if cfg.Scale > s.cfg.MaxScale {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("scale %g exceeds server limit %g", cfg.Scale, s.cfg.MaxScale)})
		return
	}
	cfg2 := cfg
	cfg3 := cfg
	cfg3.Mode = tech.ModeTMI
	// Both sides are fetched concurrently; each is its own cache entry, so
	// a compare after a plain query reuses the side already computed.
	type side struct {
		data []byte
		src  string
		err  error
	}
	var d2, d3 side
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d2.data, d2.src, d2.err = s.ppa(r.Context(), cfg2, nil)
	}()
	d3.data, d3.src, d3.err = s.ppa(r.Context(), cfg3, nil)
	wg.Wait()
	for _, sd := range []side{d2, d3} {
		if sd.err != nil {
			s.writeComputeError(w, sd.err)
			return
		}
	}
	r2, err := flow.DecodeResult(d2.data)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	r3, err := flow.DecodeResult(d3.data)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	diff := flow.Diff(r2, r3)
	w.Header().Set("X-Cache", d2.src+"/"+d3.src)
	writeJSON(w, http.StatusOK, compareResponse{
		D2:  json.RawMessage(d2.data),
		TMI: json.RawMessage(d3.data),
		Diff: compareDiff{
			Footprint: report.Pct(diff.Footprint),
			WL:        report.Pct(diff.WL),
			Total:     report.Pct(diff.Total),
			Cell:      report.Pct(diff.Cell),
			Net:       report.Pct(diff.Net),
			Leakage:   report.Pct(diff.Leakage),
			Buffers:   report.Pct(diff.Buffers),
		},
	})
}
