package stage

import (
	"container/list"
	"fmt"
	"os"
	"sync"
	"time"

	"tmi3d/internal/captable"
	"tmi3d/internal/castore"
	"tmi3d/internal/flow"
	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/par"
	"tmi3d/internal/tech"
)

// Cache events reported to OnEvent and accumulated in Counters.
const (
	EventMemHit  = "hit_mem"  // artifact served from the in-process cache
	EventDiskHit = "hit_disk" // artifact loaded and verified from the store
	EventMiss    = "miss"     // cached node not found in any tier
	EventExecute = "execute"  // node body ran (every miss, plus uncached nodes)
	// EventStoreError marks a failed store read (served as a miss) or write
	// (the computed artifact is kept): a broken store costs recomputation,
	// never a run.
	EventStoreError = "store_error"
)

// Counters is one stage's cumulative cache accounting.
type Counters struct {
	MemHits     uint64 `json:"hit_mem"`
	DiskHits    uint64 `json:"hit_disk"`
	Misses      uint64 `json:"miss"`
	Executions  uint64 `json:"execute"`
	StoreErrors uint64 `json:"store_error"`
}

// RunStats summarizes one run's cache behavior across all stages, plus the
// wall-clock profile of the stage bodies it executed.
type RunStats struct {
	MemHits    int
	DiskHits   int
	Executions int
	StageTimes []flow.StageTime
}

// Summary renders the stats in the form the serving layer's X-Stage-Hits
// response header carries.
func (s RunStats) Summary() string {
	return fmt.Sprintf("mem=%d disk=%d run=%d", s.MemHits, s.DiskHits, s.Executions)
}

// memLimit is the in-process artifact cache capacity (entries). Eight
// cached nodes per flow point means the cache holds roughly eight sweep
// points of hot artifacts.
const memLimit = 64

// Engine executes flows as the stage DAG with content-addressed reuse. Its
// Run is a drop-in for flow.Run — byte-identical results at any cache state —
// backed by two tiers: an in-process LRU of decoded artifacts and, when
// opened with a directory, a persistent castore shared across processes.
//
// An Engine is safe for concurrent use; concurrent runs needing the same
// artifact compute it once (the second run waits and counts a memory hit).
type Engine struct {
	store *castore.Store // nil = in-process tiers only

	mu       sync.Mutex
	mem      map[string]*list.Element // artifact ID → LRU element
	lru      *list.List               // of *memEntry, front = most recent
	inflight map[string]*call
	counters map[string]*Counters
	onEvent  func(stage, event string)
}

type memEntry struct {
	id string
	v  any
}

// call tracks an artifact computation in flight, so concurrent runs
// deduplicate work instead of racing to execute the same stage.
type call struct {
	wg  sync.WaitGroup
	v   any
	err error
}

// New opens a staged engine. dir roots the persistent artifact store; empty
// means in-process caching only.
func New(dir string) (*Engine, error) {
	e := &Engine{
		mem:      map[string]*list.Element{},
		lru:      list.New(),
		inflight: map[string]*call{},
		counters: map[string]*Counters{},
	}
	if dir != "" {
		s, err := castore.Open(dir)
		if err != nil {
			return nil, err
		}
		e.store = s
	}
	return e, nil
}

// Store exposes the persistent tier (nil when in-process only) — the serving
// layer hangs its quarantine metrics off it, tests corrupt entries through it.
func (e *Engine) Store() *castore.Store { return e.store }

// OnEvent registers an observer of cache events (metrics export). The
// callback runs synchronously on the run's goroutine; it must not call back
// into the engine.
func (e *Engine) OnEvent(fn func(stage, event string)) { e.onEvent = fn }

// Counters returns a snapshot of the cumulative per-stage cache counters.
func (e *Engine) Counters() map[string]Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]Counters, len(e.counters))
	for name, c := range e.counters {
		out[name] = *c
	}
	return out
}

// StoreLen counts live entries in the persistent tier (0 without one).
func (e *Engine) StoreLen() (int, error) {
	if e.store == nil {
		return 0, nil
	}
	return e.store.Len()
}

func (e *Engine) event(rc *runCtx, stage, ev string) {
	e.mu.Lock()
	c := e.counters[stage]
	if c == nil {
		c = &Counters{}
		e.counters[stage] = c
	}
	switch ev {
	case EventMemHit:
		c.MemHits++
	case EventDiskHit:
		c.DiskHits++
	case EventMiss:
		c.Misses++
	case EventExecute:
		c.Executions++
	case EventStoreError:
		c.StoreErrors++
	}
	e.mu.Unlock()
	if rc != nil {
		switch ev {
		case EventMemHit:
			rc.stats.MemHits++
		case EventDiskHit:
			rc.stats.DiskHits++
		case EventExecute:
			rc.stats.Executions++
		}
	}
	if e.onEvent != nil {
		e.onEvent(stage, ev)
	}
}

// Run executes the flow for cfg through the stage DAG. The result is
// byte-identical to flow.Run(cfg) — same report payload, same final netlist
// and placement — whatever mix of cache tiers served the stages.
func (e *Engine) Run(cfg flow.Config) (*flow.Result, error) {
	res, _, err := e.RunStats(cfg)
	return res, err
}

// RunStats is Run plus this run's cache accounting.
func (e *Engine) RunStats(cfg flow.Config) (*flow.Result, RunStats, error) {
	rc := e.newRun(cfg)
	data, stats, err := rc.report()
	if err != nil {
		return nil, stats, err
	}
	res, err := flow.DecodeResult(data)
	if err != nil {
		return nil, stats, err
	}
	// Reattach the in-memory artifacts the wire payload excludes: the final
	// implementation (for Verilog/DEF export) and this run's stage profile.
	sv, err := rc.artifact("signoff")
	if err != nil {
		return nil, rc.stats, err
	}
	sga := sv.(*flow.SignoffArtifact)
	res.Design = sga.Design.Clone()
	res.Placement = sga.Snap.Restore(res.Design)
	res.StageTimes = stats.StageTimes
	return res, stats, nil
}

// Report returns the report artifact for cfg — the canonical
// flow.EncodeResult payload, byte-identical to encoding flow.Run(cfg) —
// serving or executing whatever stages it needs, but skipping Run's decode of
// the payload and its reattachment of the final implementation.
func (e *Engine) Report(cfg flow.Config) ([]byte, RunStats, error) {
	return e.newRun(cfg).report()
}

func (rc *runCtx) report() ([]byte, RunStats, error) {
	v, err := rc.artifact("report")
	rc.stats.StageTimes = rc.prof.Times()
	if err != nil {
		return nil, rc.stats, err
	}
	return v.([]byte), rc.stats, nil
}

// Cached looks up a report artifact by its ID — a config's Key — in the
// memory tier only: no store read, no execution, one map probe. A miss is
// Report's to serve, from the store or by executing.
func (e *Engine) Cached(id string) ([]byte, bool) {
	e.mu.Lock()
	v, ok := e.memGet(id)
	e.mu.Unlock()
	if !ok {
		return nil, false
	}
	e.event(nil, "report", EventMemHit)
	return v.([]byte), true
}

// PlanEntry describes one DAG node's cache standing for a config.
type PlanEntry struct {
	Name   string `json:"name"`
	Key    string `json:"key"`
	ID     string `json:"id"`
	Cached bool   `json:"cached"`
	// Tier is where the artifact would be served from right now: "mem",
	// "disk", "" (absent — the node would execute), or "-" for uncached
	// nodes, which always execute.
	Tier string `json:"tier"`
}

// Plan reports, without executing anything, where each stage of a run for cfg
// would be served from — the `tmi3d stages` subcommand's view.
func (e *Engine) Plan(cfg flow.Config) []PlanEntry {
	cfg = cfg.Normalized()
	idByName := ids(cfg)
	// Snapshot the memory tier's membership under the lock, then probe the
	// disk tier unlocked: a Stat per node while holding e.mu would stall
	// every concurrent artifact() behind the filesystem.
	inMem := make(map[string]bool, len(Nodes))
	e.mu.Lock()
	for i := range Nodes {
		if id := idByName[Nodes[i].Name]; id != "" {
			_, inMem[id] = e.mem[id]
		}
	}
	e.mu.Unlock()
	out := make([]PlanEntry, 0, len(Nodes))
	for i := range Nodes {
		n := &Nodes[i]
		pe := PlanEntry{
			Name:   n.Name,
			Key:    KeyString(cfg, n.Name),
			ID:     idByName[n.Name],
			Cached: n.Cached,
			Tier:   "-",
		}
		if n.Cached {
			pe.Tier = ""
			if inMem[pe.ID] {
				pe.Tier = "mem"
			} else if e.store != nil {
				if _, err := os.Stat(e.store.EntryPath(storeKey(n.Name, pe.ID))); err == nil {
					pe.Tier = "disk"
				}
			}
		}
		out = append(out, pe)
	}
	return out
}

// storeKey is the persistent tier's key for a node's artifact. The name is
// redundant with the ID (the ID hashes it) but keeps entry headers and
// quarantine reports human-attributable.
func storeKey(name, id string) string { return "stage|" + name + "|" + id }

// memGet looks up a decoded artifact, refreshing its recency. Caller holds mu.
func (e *Engine) memGet(id string) (any, bool) {
	el, ok := e.mem[id]
	if !ok {
		return nil, false
	}
	e.lru.MoveToFront(el)
	return el.Value.(*memEntry).v, true
}

// memPut inserts a decoded artifact, evicting the coldest entries past the
// cache limit. Caller holds mu.
func (e *Engine) memPut(id string, v any) {
	if el, ok := e.mem[id]; ok {
		e.lru.MoveToFront(el)
		el.Value.(*memEntry).v = v
		return
	}
	e.mem[id] = e.lru.PushFront(&memEntry{id: id, v: v})
	for e.lru.Len() > memLimit {
		el := e.lru.Back()
		e.lru.Remove(el)
		delete(e.mem, el.Value.(*memEntry).id)
	}
}

// artifact serves one cached node: memory tier, then the store, then
// execution (with inflight deduplication across concurrent runs). A panicking
// stage body still retires its inflight entry — waiters wake with an error
// and a later run retries — before the panic continues up this run's stack.
func (e *Engine) artifact(rc *runCtx, name string) (v any, err error) {
	id := rc.ids[name]
	e.mu.Lock()
	if v, ok := e.memGet(id); ok {
		e.mu.Unlock()
		e.event(rc, name, EventMemHit)
		return v, nil
	}
	c, waiting := e.inflight[id]
	if !waiting {
		c = &call{}
		c.wg.Add(1)
		e.inflight[id] = c
	}
	e.mu.Unlock()
	if waiting {
		c.wg.Wait()
		if c.err != nil {
			return nil, c.err
		}
		// The other run decoded and published the artifact; serving it
		// without re-executing is this run's memory hit.
		e.event(rc, name, EventMemHit)
		return c.v, nil
	}
	panicked := true
	defer func() {
		if panicked {
			v, err = nil, fmt.Errorf("stage: %s body panicked", name)
		}
		c.v, c.err = v, err
		e.mu.Lock()
		delete(e.inflight, id)
		if err == nil {
			e.memPut(id, v)
		}
		e.mu.Unlock()
		c.wg.Done()
	}()
	v, err = e.fill(rc, name, id)
	panicked = false
	return v, err
}

// fill loads a node's artifact from the store or executes it, publishing
// fresh bytes back to the store. Both paths return the decoded form. A store
// that fails to read or write degrades to recomputation, counted as a
// store_error event.
func (e *Engine) fill(rc *runCtx, name, id string) (any, error) {
	key := storeKey(name, id)
	if e.store != nil {
		data, ok, err := e.store.Get(key)
		if err != nil {
			e.event(rc, name, EventStoreError)
		}
		if ok {
			if v, derr := decodeNode(name, data); derr == nil {
				e.event(rc, name, EventDiskHit)
				return v, nil
			}
			// Undecodable despite a verified checksum: an envelope format
			// skew. Recompute and overwrite below, like any miss.
		}
	}
	e.event(rc, name, EventMiss)
	data, err := rc.execute(name)
	if err != nil {
		return nil, err
	}
	if e.store != nil {
		if err := e.store.Put(key, data); err != nil {
			e.event(rc, name, EventStoreError)
		}
	}
	return decodeNode(name, data)
}

// runCtx is one Run's working state: the normalized config, the per-node
// artifact IDs, the per-run values of the uncached nodes, and this run's
// resolved artifacts (so a node consumed by several downstream stages loads
// once per run even if the memory tier has evicted it).
type runCtx struct {
	eng   *Engine
	cfg   flow.Config
	ids   map[string]string
	prof  *flow.Profile
	stats RunStats

	// Per-run values, resolved on first use by a node that declares them.
	resolved map[string]bool
	seed     uint64
	workers  int
	calib    float64
	t        *tech.Technology
	lib      *liberty.Library
	gen      *netlist.Design
	gs       *flow.GateSet
	tb       *captable.Table

	arts map[string]any
}

func (e *Engine) newRun(cfg flow.Config) *runCtx {
	cfg = cfg.Normalized()
	return &runCtx{
		eng:      e,
		cfg:      cfg,
		ids:      ids(cfg),
		prof:     flow.NewProfile(),
		resolved: map[string]bool{},
		arts:     map[string]any{},
	}
}

func (rc *runCtx) artifact(name string) (any, error) {
	if v, ok := rc.arts[name]; ok {
		return v, nil
	}
	v, err := rc.eng.artifact(rc, name)
	if err != nil {
		return nil, err
	}
	rc.arts[name] = v
	return v, nil
}

// resolve makes one declared dependency available: a cached node's artifact,
// or an uncached node's per-run values, computed at most once per run.
func (rc *runCtx) resolve(name string) error {
	n := nodeByName[name]
	if n.Cached {
		_, err := rc.artifact(name)
		return err
	}
	if rc.resolved[name] {
		return nil
	}
	for _, dep := range n.Deps {
		if err := rc.resolve(dep); err != nil {
			return err
		}
	}
	var err error
	t0 := time.Now()
	switch name {
	case "setup":
		rc.seed = rc.cfg.DeriveSeed()
		rc.workers = par.Budget(rc.cfg.Workers)
		// The generate stage's calibration factor, without generating.
		rc.calib = flow.ClockCalibrationFactor(rc.cfg.Circuit, rc.cfg.Node)
	case "library":
		rc.t, rc.lib, err = rc.cfg.Library()
		rc.prof.Add("library", time.Since(t0))
	case "generate":
		rc.gen, _, err = rc.cfg.GenerateDesign()
		rc.prof.Add("generate", time.Since(t0))
	case "gates":
		rc.gs, err = rc.cfg.Gates(rc.lib, rc.seed, rc.prof)
	}
	if err != nil {
		return err
	}
	rc.resolved[name] = true
	rc.eng.event(rc, name, EventExecute)
	return nil
}

// captable is the RC table of the opt cone. Its inputs (technology,
// ResistivityScale) are pinned by the consumer's artifact ID through the opt
// dependency.
func (rc *runCtx) captable() *captable.Table {
	if rc.tb == nil {
		rc.tb = rc.cfg.CapTable(rc.t)
	}
	return rc.tb
}

// execute runs one cached node: it resolves the node's declared deps, calls
// the flow node function flow.Run calls, and encodes the returned envelope.
func (rc *runCtx) execute(name string) ([]byte, error) {
	rc.eng.event(rc, name, EventExecute)
	for _, dep := range nodeByName[name].Deps {
		if err := rc.resolve(dep); err != nil {
			return nil, err
		}
	}
	a := rc.arts
	var v any
	var err error
	switch name {
	case "wlm":
		v = rc.cfg.WLMNode(rc.lib, rc.gen)
	case "synth":
		v, err = flow.SynthNode(rc.gen, rc.lib, a["wlm"].(*flow.WLMArtifact), rc.gs.Fresh(), rc.prof)
	case "place":
		v, err = flow.PlaceNode(rc.t, rc.lib, a["wlm"].(*flow.WLMArtifact), a["synth"].(*flow.SynthArtifact),
			rc.seed, rc.workers, rc.prof)
	case "opt":
		v, err = rc.cfg.OptNode(rc.lib, rc.captable(), a["synth"].(*flow.SynthArtifact), a["place"].(*flow.PlaceArtifact),
			rc.calib, rc.workers, rc.gs.Fresh(), rc.prof)
	case "route":
		v, err = flow.RouteNode(rc.t, a["opt"].(*flow.OptArtifact), rc.workers, rc.prof)
	case "signoff":
		v, err = flow.SignoffNode(rc.t, rc.lib, rc.captable(), a["opt"].(*flow.OptArtifact), a["route"].(*flow.RouteArtifact),
			rc.workers, rc.gs.Fresh(), rc.prof)
	case "power":
		v, err = rc.cfg.PowerNode(rc.t, rc.lib, rc.captable(), a["signoff"].(*flow.SignoffArtifact), rc.prof)
	case "report":
		return flow.EncodeResult(flow.ReportNode(rc.cfg, rc.lib, rc.gs, a["synth"].(*flow.SynthArtifact),
			a["opt"].(*flow.OptArtifact), a["signoff"].(*flow.SignoffArtifact), a["power"].(*flow.PowerArtifact), rc.prof))
	default:
		return nil, fmt.Errorf("stage: no executor for node %q", name)
	}
	if err != nil {
		return nil, err
	}
	return encodeArtifact(v)
}
