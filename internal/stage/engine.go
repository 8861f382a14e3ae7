// Package stage is the staged flow engine: the artifact cache of flow's DAG
// walk. flow owns the one executor — flow.Walk pulls the twelve stages of
// flow.Nodes through one dispatch function — and flow.Run is that walk with no
// cache. An Engine is the walk with a cache: for every cached node the walk
// asks the engine, which serves the node's artifact from memory or a
// persistent store, or computes it once, so sweeps recompute only the dirty
// cone. A clock sweep reruns opt/route/signoff/power/report per point while
// generate, synthesis, and placement are computed once; a 2D-vs-T-MI compare
// shares whatever prefix its two configs agree on.
//
// # Content addressing
//
// Every node has a stage key — flow.KeyFields, its flow.StageKeys Config
// fields minus Workers — and a key-field closure: the sorted union of its own
// key fields and those of every node upstream of it. Its artifact ID
// (flow.Node.ID) is flow.Config.ArtifactID over the closure:
//
//	id = sha256(version, name, field=term over the key-field closure)
//
// Two configs share a stage's artifact exactly when they agree on every field
// of its closure — the same sharing a chain of upstream IDs would give, at the
// cost of one hash per lookup. The report node's closure is the whole config,
// so its ID is flow.Config.Key, which the serving layer probes with.
// Soundness rests on two checks: the stagedeps analyzer proves each dispatch
// case reads no Config field outside its StageKeys entry, and the walk hands a
// node only the values of its declared deps, so a node's artifact depends on
// nothing its closure does not pin.
//
// # Byte identity
//
// One walk, and cache state never changes bytes: with or without a cache, the
// same dispatch computes every node from its deps' values. A cache only
// decides whether a node's body runs or its artifact is loaded instead. A
// fresh envelope is handed downstream as computed, a loaded one as decoded,
// and the codecs are exact inverses (wiresafe proves them total, tmi3d wireid
// replays a store through them), so both forms are the same value. Envelopes
// are shared between walks and never mutated: node bodies clone what they
// mutate. Tests diff report, Verilog, and DEF bytes across cold, warm,
// partial-hit and broken stores, and across a memory-only sweep.
package stage

import (
	"container/list"
	"fmt"
	"os"
	"strings"
	"sync"

	"tmi3d/internal/castore"
	"tmi3d/internal/flow"
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

// memLimit is the in-process envelope tier's capacity (entries). Seven
// cached envelopes per flow point means the tier holds roughly nine sweep
// points of hot layouts.
const memLimit = 64

// reportBudget is the in-process report tier's capacity in payload bytes.
// A report is 10-100x smaller than the layout envelopes it came from, so
// reports get a tier of their own and outlive those layouts: a table that
// re-reads an earlier table's flow never re-runs it. The full cmd/experiments
// set (89 reports, 17 MB at scale 0.1, growing linearly with scale) fits at
// scale 1.0.
const reportBudget = 256 << 20

// Engine caches the artifacts of flow's DAG walk with content-addressed reuse.
// Its Run is a drop-in for flow.Run — byte-identical results at any cache
// state — backed by two tiers: in process, an LRU of envelopes and a
// byte-budgeted LRU of report payloads; when opened with a directory, a
// persistent castore shared across processes.
//
// An Engine is safe for concurrent use; concurrent runs needing the same
// artifact compute it once (the second run waits and counts a memory hit).
type Engine struct {
	store *castore.Store // nil = in-process tiers only

	mu       sync.Mutex
	envs     *lru // envelopes, memLimit entries
	reports  *lru // report payloads, reportBudget bytes
	inflight map[string]*call
	counters map[string]*Counters
	onEvent  func(stage, event string)
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
		envs:     newLRU(memLimit, func(any) int { return 1 }),
		reports:  newLRU(reportBudget, func(v any) int { return len(v.([]byte)) }),
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

func (e *Engine) event(r *run, stage, ev string) {
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
	if r != nil {
		switch ev {
		case EventMemHit:
			r.stats.MemHits++
		case EventDiskHit:
			r.stats.DiskHits++
		case EventExecute:
			r.stats.Executions++
		}
	}
	if e.onEvent != nil {
		e.onEvent(stage, ev)
	}
}

// Run executes the flow for cfg: flow's DAG walk with this engine as its
// cache. The result is byte-identical to flow.Run(cfg) — same report payload,
// same final netlist and placement — whatever mix of cache tiers served the
// stages.
func (e *Engine) Run(cfg flow.Config) (*flow.Result, error) {
	res, _, err := e.RunStats(cfg)
	return res, err
}

// RunStats is Run plus this run's cache accounting, the hits and executions
// of reattaching the final implementation included.
func (e *Engine) RunStats(cfg flow.Config) (*flow.Result, RunStats, error) {
	r := e.newRun(cfg)
	data, err := r.walk.Value("report")
	if err != nil {
		return nil, r.done(), err
	}
	res, err := flow.DecodeResult(data.([]byte))
	if err != nil {
		return nil, r.done(), err
	}
	// Reattach the in-memory artifacts the wire payload excludes: the final
	// implementation (for Verilog/DEF export) and this run's stage profile.
	sv, err := r.walk.Value("signoff")
	if err != nil {
		return nil, r.done(), err
	}
	sga := sv.(*flow.SignoffArtifact)
	res.Design = sga.Design.Clone()
	res.Placement = sga.Snap.Restore(res.Design)
	stats := r.done()
	res.StageTimes = stats.StageTimes
	return res, stats, nil
}

// Report returns the report artifact for cfg — the canonical
// flow.EncodeResult payload, byte-identical to encoding flow.Run(cfg) —
// serving or executing whatever stages it needs, but skipping Run's decode of
// the payload and its reattachment of the final implementation.
func (e *Engine) Report(cfg flow.Config) ([]byte, RunStats, error) {
	r := e.newRun(cfg)
	v, err := r.walk.Value("report")
	if err != nil {
		return nil, r.done(), err
	}
	return v.([]byte), r.done(), nil
}

// run is one walk's cache: it serves the walk's cached nodes through the
// engine and tallies the walk's cache accounting.
type run struct {
	e     *Engine
	walk  *flow.Walk
	stats RunStats
}

func (e *Engine) newRun(cfg flow.Config) *run {
	r := &run{e: e}
	r.walk = flow.NewWalk(cfg, r)
	return r
}

// done returns the run's cache accounting with the walk's stage profile.
func (r *run) done() RunStats {
	r.stats.StageTimes = r.walk.StageTimes()
	return r.stats
}

// Artifact implements flow.Cache.
func (r *run) Artifact(n *flow.Node, id string, compute func() (any, error)) (any, error) {
	return r.e.artifact(r, n, id, compute)
}

// Executed implements flow.Cache: an uncached node ran.
func (r *run) Executed(n *flow.Node) { r.e.event(r, n.Name, EventExecute) }

// Cached looks up a report artifact by its ID — a config's Key — in the
// in-process report tier only: no store read, no execution, one map probe. A
// miss is Report's to serve, from the store or by executing.
func (e *Engine) Cached(id string) ([]byte, bool) {
	e.mu.Lock()
	v, ok := e.reports.get(id)
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
	ids := make([]string, len(flow.Nodes))
	for i := range flow.Nodes {
		ids[i] = flow.Nodes[i].ID(cfg)
	}
	// Snapshot the memory tier's membership under the lock, then probe the
	// disk tier unlocked: a Stat per node while holding e.mu would stall
	// every concurrent artifact() behind the filesystem.
	inMem := make(map[string]bool, len(ids))
	e.mu.Lock()
	for i := range flow.Nodes {
		_, inMem[ids[i]] = e.tier(&flow.Nodes[i]).items[ids[i]]
	}
	e.mu.Unlock()
	out := make([]PlanEntry, 0, len(flow.Nodes))
	for i := range flow.Nodes {
		n := &flow.Nodes[i]
		pe := PlanEntry{
			Name:   n.Name,
			Key:    KeyString(cfg, n.Name),
			ID:     ids[i],
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

// KeyString renders a node's own stage key for a config in the canonical
// field=value form — what the `tmi3d stages` subcommand shows per node.
func KeyString(cfg flow.Config, name string) string {
	fields := flow.KeyFields(name)
	terms := make([]string, len(fields))
	for i, f := range fields {
		terms[i] = f + "=" + cfg.FieldKeyTerm(f)
	}
	return strings.Join(terms, "|")
}

// storeKey is the persistent tier's key for a node's artifact. The name is
// redundant with the ID (the ID hashes it) but keeps entry headers and
// quarantine reports human-attributable.
func storeKey(name, id string) string { return "stage|" + name + "|" + id }

// lru is one in-process tier: artifacts by ID, evicting the least recently
// used while the entries' total cost exceeds limit. Callers hold Engine.mu.
type lru struct {
	items map[string]*list.Element
	order *list.List // of *memEntry, front = most recent
	size  int
	limit int
	cost  func(any) int
}

type memEntry struct {
	id string
	v  any
}

func newLRU(limit int, cost func(any) int) *lru {
	return &lru{items: map[string]*list.Element{}, order: list.New(), limit: limit, cost: cost}
}

// get looks up an artifact, refreshing its recency.
func (c *lru) get(id string) (any, bool) {
	el, ok := c.items[id]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*memEntry).v, true
}

// put inserts an artifact, evicting the coldest entries past the limit.
func (c *lru) put(id string, v any) {
	if el, ok := c.items[id]; ok {
		c.size -= c.cost(el.Value.(*memEntry).v)
		c.order.Remove(el)
	}
	c.items[id] = c.order.PushFront(&memEntry{id: id, v: v})
	c.size += c.cost(v)
	for c.size > c.limit {
		el := c.order.Back()
		c.order.Remove(el)
		c.size -= c.cost(el.Value.(*memEntry).v)
		delete(c.items, el.Value.(*memEntry).id)
	}
}

// tier is the in-process tier holding n's artifacts.
func (e *Engine) tier(n *flow.Node) *lru {
	if n.Envelope == nil {
		return e.reports
	}
	return e.envs
}

// artifact serves one cached node: memory tier, then the store, then
// compute (with inflight deduplication across concurrent runs). A panicking
// stage body still retires its inflight entry — waiters wake with an error
// and a later run retries — before the panic continues up this run's stack.
func (e *Engine) artifact(r *run, n *flow.Node, id string, compute func() (any, error)) (v any, err error) {
	name := n.Name
	e.mu.Lock()
	if v, ok := e.tier(n).get(id); ok {
		e.mu.Unlock()
		e.event(r, name, EventMemHit)
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
		// The other run computed or loaded the artifact; serving it
		// without re-executing is this run's memory hit.
		e.event(r, name, EventMemHit)
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
			e.tier(n).put(id, v)
		}
		e.mu.Unlock()
		c.wg.Done()
	}()
	v, err = e.fill(r, n, id, compute)
	panicked = false
	return v, err
}

// fill loads a node's artifact from the store or computes it, publishing
// fresh bytes back to the store. A loaded artifact is returned decoded, a
// computed one as computed: an envelope is encoded only to be stored, the
// report always, since its payload bytes are its artifact. A store that fails
// to read or write degrades to recomputation, counted as a store_error event.
func (e *Engine) fill(r *run, n *flow.Node, id string, compute func() (any, error)) (any, error) {
	name := n.Name
	key := storeKey(name, id)
	if e.store != nil {
		data, ok, err := e.store.Get(key)
		if err != nil {
			e.event(r, name, EventStoreError)
		}
		if ok {
			if v, derr := decodeArtifact(n, data); derr == nil {
				e.event(r, name, EventDiskHit)
				return v, nil
			}
			// Undecodable despite a verified checksum: an envelope format
			// skew. Recompute and overwrite below, like any miss.
		}
	}
	e.event(r, name, EventMiss)
	e.event(r, name, EventExecute)
	v, err := compute()
	if err != nil {
		return nil, err
	}
	if n.Envelope != nil && e.store == nil {
		return v, nil
	}
	data, err := encodeArtifact(v)
	if err != nil {
		return nil, err
	}
	if n.Envelope == nil {
		v = data
	}
	if e.store != nil {
		if err := e.store.Put(key, data); err != nil {
			e.event(r, name, EventStoreError)
		}
	}
	return v, nil
}
