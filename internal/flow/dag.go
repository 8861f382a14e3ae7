package flow

import (
	"fmt"
	"sort"
	"time"

	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/par"
	"tmi3d/internal/tech"
)

// This file is the flow's one executor: the twelve stages as a DAG, and the
// pull-based walk that evaluates it. Run is the walk with no cache; the staged
// engine (internal/stage) is the walk with a Cache serving the cached nodes.
// Both compute every node through dispatch, on the values of its declared deps
// and nothing else, which is why no cache state can change a byte.

// Node is one stage of the DAG.
type Node struct {
	// Name is the stage's case in dispatch and its StageKeys entry.
	Name string
	// Deps are the upstream nodes whose values this node reads: dispatch hands
	// it those and no others. Their key-field closures are part of this
	// node's.
	Deps []string
	// Cached marks nodes whose artifact a Cache may serve. Uncached nodes —
	// setup, library, generate, gates — are recomputed per walk: they are
	// cheap, process-cached (generated netlists, the library check), or hold
	// unserializable state (the liberty library, the gate set).
	Cached bool
	// Envelope allocates the wire envelope a cached node's artifact bytes
	// decode into. It is nil for the report, whose artifact is its
	// EncodeResult payload, held and served as those bytes.
	Envelope func() any
}

// Nodes is the DAG in topological (pipeline) order.
var Nodes = []Node{
	{Name: "setup"},
	{Name: "library", Deps: []string{"setup"}},
	{Name: "generate", Deps: []string{"setup"}},
	{Name: "wlm", Deps: []string{"setup", "library", "generate"}, Cached: true,
		Envelope: func() any { return new(WLMArtifact) }},
	{Name: "gates", Deps: []string{"setup", "library"}},
	{Name: "synth", Deps: []string{"setup", "library", "generate", "wlm", "gates"}, Cached: true,
		Envelope: func() any { return new(SynthArtifact) }},
	{Name: "place", Deps: []string{"setup", "library", "wlm", "synth"}, Cached: true,
		Envelope: func() any { return new(PlaceArtifact) }},
	{Name: "opt", Deps: []string{"setup", "library", "gates", "synth", "place"}, Cached: true,
		Envelope: func() any { return new(OptArtifact) }},
	{Name: "route", Deps: []string{"setup", "library", "opt"}, Cached: true,
		Envelope: func() any { return new(RouteArtifact) }},
	{Name: "signoff", Deps: []string{"setup", "library", "gates", "opt", "route"}, Cached: true,
		Envelope: func() any { return new(SignoffArtifact) }},
	{Name: "power", Deps: []string{"setup", "library", "signoff"}, Cached: true,
		Envelope: func() any { return new(PowerArtifact) }},
	{Name: "report", Deps: []string{"setup", "library", "gates", "synth", "opt", "signoff", "power"}, Cached: true},
}

var nodeByName = func() map[string]*Node {
	m := make(map[string]*Node, len(Nodes))
	for i := range Nodes {
		m[Nodes[i].Name] = &Nodes[i]
	}
	return m
}()

// consumers counts, per node, the nodes that list it as a dep: how many reads
// the no-cache walk waits for before it releases the node's value.
var consumers = func() map[string]int {
	m := make(map[string]int, len(Nodes))
	for i := range Nodes {
		for _, dep := range Nodes[i].Deps {
			m[dep]++
		}
	}
	return m
}()

// closures maps every node to its key-field closure: the sorted union of its
// own KeyFields and those of every node upstream of it.
var closures = func() map[string][]string {
	out := make(map[string][]string, len(Nodes))
	for i := range Nodes {
		n := &Nodes[i]
		set := map[string]bool{}
		for _, f := range KeyFields(n.Name) {
			set[f] = true
		}
		for _, dep := range n.Deps {
			for _, f := range out[dep] {
				set[f] = true
			}
		}
		fields := make([]string, 0, len(set))
		for f := range set {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		out[n.Name] = fields
	}
	return out
}()

// ID is the node's artifact ID for a config: ArtifactID over its key-field
// closure. Two configs share a node's artifact exactly when they agree on
// every field of the closure; the report's closure is the whole key, so its ID
// is Config.Key. cfg must be normalized.
func (n *Node) ID(cfg Config) string { return cfg.ArtifactID(n.Name, closures[n.Name]) }

// Cache serves the cached nodes of a walk.
type Cache interface {
	// Artifact returns cached node n's artifact, addressed by id: held by the
	// cache, or computed by compute — which evaluates n's deps through the
	// walk and runs n's body — and then held. The value is the node's
	// decoded envelope, or the payload bytes for the report.
	Artifact(n *Node, id string, compute func() (any, error)) (any, error)
	// Executed records that the body of uncached node n ran.
	Executed(n *Node)
}

// Walk is one pull-based evaluation of the DAG for a config: a node is
// computed when first asked for, after its deps, and at most once while its
// value is held.
//
// Without a cache the walk owns every value: it releases each once its last
// consumer ran, and the synth and opt netlists once their last netlist
// consumer ran (the report reads only their statistics and gate reports), so
// a flow keeps at most two netlists alive. With a cache the values are the
// cache's shared, immutable artifacts, held for the walk's lifetime.
type Walk struct {
	cfg   Config
	cache Cache
	prof  *Profile
	vals  map[string]any
	uses  map[string]int
}

// NewWalk starts a walk of cfg's DAG. A nil cache computes every node.
func NewWalk(cfg Config, c Cache) *Walk {
	w := &Walk{cfg: cfg.Normalized(), cache: c, prof: NewProfile(), vals: map[string]any{}}
	if c == nil {
		w.uses = make(map[string]int, len(consumers))
		for name, n := range consumers {
			w.uses[name] = n
		}
	}
	return w
}

// Value returns the named node's value: its envelope, the report's *Result
// (without a cache) or payload bytes (with one), or an uncached node's
// per-run value.
func (w *Walk) Value(name string) (any, error) {
	n, ok := nodeByName[name]
	if !ok {
		return nil, fmt.Errorf("flow: no stage %q", name)
	}
	return w.value(n)
}

// StageTimes is the wall-clock profile of the stage bodies the walk ran.
func (w *Walk) StageTimes() []StageTime { return w.prof.Times() }

func (w *Walk) value(n *Node) (any, error) {
	if v, ok := w.vals[n.Name]; ok {
		return v, nil
	}
	compute := func() (any, error) {
		in := &inputs{node: n.Name, vals: make(map[string]any, len(n.Deps)), prof: w.prof, owned: w.cache == nil}
		for _, dep := range n.Deps {
			v, err := w.value(nodeByName[dep])
			if err != nil {
				return nil, err
			}
			in.vals[dep] = v
		}
		return dispatch(w.cfg, n.Name, in)
	}
	var v any
	var err error
	switch {
	case w.cache == nil:
		v, err = compute()
	case n.Cached:
		v, err = w.cache.Artifact(n, n.ID(w.cfg), compute)
	default:
		if v, err = compute(); err == nil {
			w.cache.Executed(n)
		}
	}
	if err != nil {
		return nil, err
	}
	w.vals[n.Name] = v
	if w.uses != nil {
		for _, dep := range n.Deps {
			if w.uses[dep]--; w.uses[dep] == 0 {
				delete(w.vals, dep)
			}
		}
	}
	return v, nil
}

// Run executes the full flow: the walk of cfg's DAG with no cache, computing
// every stage once through the same dispatch the staged engine
// (internal/stage) runs on cached envelopes.
func Run(cfg Config) (*Result, error) {
	v, err := NewWalk(cfg, nil).Value("report")
	if err != nil {
		return nil, err
	}
	return v.(*Result), nil
}

// setupValues is the setup node's value.
type setupValues struct {
	seed    uint64
	workers int
	calib   float64
}

// libraryValues is the library node's value.
type libraryValues struct {
	t   *tech.Technology
	lib *liberty.Library
}

// inputs are the values of one node's declared deps: with the config, all
// dispatch hands a stage.
type inputs struct {
	node  string
	vals  map[string]any
	prof  *Profile
	owned bool // no cache shares the values: the walk may release them
}

// get returns a dep's value. Reading a stage the node does not declare as a
// dep panics: its artifact ID would not cover what the node computed from.
func (in *inputs) get(dep string) any {
	v, ok := in.vals[dep]
	if !ok {
		panic(fmt.Sprintf("flow: stage %s reads %s, which is not among its declared deps", in.node, dep))
	}
	return v
}

func (in *inputs) setup() *setupValues     { return in.get("setup").(*setupValues) }
func (in *inputs) library() *libraryValues { return in.get("library").(*libraryValues) }
func (in *inputs) gates() *GateSet         { return in.get("gates").(*GateSet) }

// drop releases an upstream netlist no later stage reads, when the walk owns
// it; a cache's envelopes are shared and never mutated.
func (in *inputs) drop(d **netlist.Design) {
	if in.owned {
		*d = nil
	}
}

// dispatch runs the body of the named stage on its deps' values. Each case is
// one stage, named as in Nodes and StageKeys: the stagedeps analyzer
// (internal/vet) checks the Config fields each case reads against its
// StageKeys entry, so a stage can never silently grow a dependency its
// artifact ID does not cover.
//
//tmi3dvet:dispatch
func dispatch(cfg Config, name string, in *inputs) (any, error) {
	prof := in.prof
	switch name {
	case "setup":
		// Every random decision downstream draws from a stream derived purely
		// from the configuration, never from scheduling order — the
		// determinism contract that lets the experiment engine run flows in
		// parallel and still produce bit-identical reports. The worker budget
		// is resolved once (0 → GOMAXPROCS) so callers running several flows
		// concurrently can split the cores between them; calib is the generate
		// stage's clock calibration, which the opt stage applies to a sweep
		// clock.
		return &setupValues{
			seed:    cfg.DeriveSeed(),
			workers: par.Budget(cfg.Workers),
			calib:   ClockCalibrationFactor(cfg.Circuit, cfg.Node),
		}, nil
	case "library":
		t0 := time.Now()
		t, lib, err := cfg.Library()
		if err != nil {
			return nil, err
		}
		prof.Add("library", time.Since(t0))
		return &libraryValues{t: t, lib: lib}, nil
	case "generate":
		t0 := time.Now()
		gen, _, err := cfg.GenerateDesign()
		if err != nil {
			return nil, err
		}
		prof.Add("generate", time.Since(t0))
		return gen, nil
	case "wlm":
		return cfg.WLMNode(in.library().lib, in.get("generate").(*netlist.Design)), nil
	case "gates":
		// Design-integrity and formal sign-off gates at the stage boundaries
		// where the paper's flow runs Encounter sanity checks and Conformal/
		// Formality compares; each gated node records into its own fresh set.
		return cfg.Gates(in.library().lib, in.setup().seed, prof)
	case "synth":
		return SynthNode(in.get("generate").(*netlist.Design), in.library().lib, in.get("wlm").(*WLMArtifact),
			in.gates().Fresh(), prof)
	case "place":
		su, l := in.setup(), in.library()
		return PlaceNode(l.t, l.lib, in.get("wlm").(*WLMArtifact), in.get("synth").(*SynthArtifact),
			su.seed, su.workers, prof)
	case "opt":
		// From here on the flow targets the sweep clock: the override steers
		// optimization, sign-off, and power while the artifacts above stay
		// clock-independent.
		su, l := in.setup(), in.library()
		s := in.get("synth").(*SynthArtifact)
		o, err := cfg.OptNode(l.lib, cfg.CapTable(l.t), s, in.get("place").(*PlaceArtifact),
			su.calib, su.workers, in.gates().Fresh(), prof)
		in.drop(&s.Design)
		return o, err
	case "route":
		return RouteNode(in.library().t, in.get("opt").(*OptArtifact), in.setup().workers, prof)
	case "signoff":
		su, l := in.setup(), in.library()
		o := in.get("opt").(*OptArtifact)
		so, err := SignoffNode(l.t, l.lib, cfg.CapTable(l.t), o, in.get("route").(*RouteArtifact),
			su.workers, in.gates().Fresh(), prof)
		in.drop(&o.Design)
		return so, err
	case "power":
		l := in.library()
		return cfg.PowerNode(l.t, l.lib, cfg.CapTable(l.t), in.get("signoff").(*SignoffArtifact), prof)
	case "report":
		return ReportNode(cfg, in.library().lib, in.gates(), in.get("synth").(*SynthArtifact),
			in.get("opt").(*OptArtifact), in.get("signoff").(*SignoffArtifact), in.get("power").(*PowerArtifact), prof), nil
	}
	return nil, fmt.Errorf("flow: no stage %q", name)
}
