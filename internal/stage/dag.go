// Package stage is the staged flow engine: it executes flow.Run's pipeline
// as an explicit DAG of the twelve anchored stages, content-addressing every
// stage's output so sweeps recompute only the dirty cone. A clock sweep
// reruns opt/route/signoff/power/report per point while generate, synthesis,
// and placement are computed once; a 2D-vs-T-MI compare shares whatever
// prefix its two configs agree on.
//
// # Content addressing
//
// Every node has a stage key — flow.KeyFields, the flow.StageKeys Config
// fields of the corresponding //tmi3dvet:stage region minus Workers — and a
// key-field closure: the sorted union of its own key fields and those of every
// node upstream of it. Its artifact ID is flow.Config.ArtifactID over the
// closure:
//
//	id = sha256(version, name, field=term over the key-field closure)
//
// Two configs share a stage's artifact exactly when they agree on every field
// of its closure — the same sharing a chain of upstream IDs would give, at the
// cost of one hash per lookup. The report node's closure is the whole config,
// so its ID is flow.Config.Key, which the serving layer probes with.
// Soundness rests on the stagedeps analyzer: it proves each region reads no
// Config field outside its manifest entry, and the DAG consistency test
// (dag_test.go) proves every cross-stage artifact edge the analyzer computes
// is carried by the Deps declared here.
//
// # Byte identity
//
// Staged results are byte-identical to monolithic flow.Run under any cache
// state. The argument: both executors call the same flow node function for
// every cached stage (flow.SynthNode, flow.OptNode, ...), whose inputs are
// upstream envelopes and recomputed per-run values; artifact codecs are exact
// inverses; and envelopes are immutable (node functions clone what they
// mutate). Tests diff report, Verilog, and DEF bytes across cold, warm,
// partial-hit and broken stores.
package stage

import (
	"sort"
	"strings"

	"tmi3d/internal/flow"
)

// Node is one stage of the DAG.
type Node struct {
	// Name matches the //tmi3dvet:stage anchor and the StageKeys entry.
	Name string
	// Deps are the upstream nodes whose artifacts this node consumes; their
	// key-field closures are part of this node's. Every cross-stage
	// artifact edge stagedeps computes over flow.Run must be covered by the
	// transitive closure of these edges.
	Deps []string
	// Cached marks nodes whose artifact is cacheable (in memory, and on disk
	// when a store is configured). Uncached nodes — setup, library, generate,
	// gates — are recomputed per run: they are cheap, process-cached
	// (generated netlists, the library check), or hold unserializable state
	// (the liberty library, the gate set).
	Cached bool
}

// Nodes is the DAG in topological (pipeline) order.
var Nodes = []Node{
	{Name: "setup"},
	{Name: "library", Deps: []string{"setup"}},
	{Name: "generate", Deps: []string{"setup"}},
	{Name: "wlm", Deps: []string{"setup", "library", "generate"}, Cached: true},
	{Name: "gates", Deps: []string{"setup", "library"}},
	{Name: "synth", Deps: []string{"setup", "library", "generate", "wlm", "gates"}, Cached: true},
	{Name: "place", Deps: []string{"setup", "library", "wlm", "synth"}, Cached: true},
	{Name: "opt", Deps: []string{"setup", "library", "gates", "synth", "place"}, Cached: true},
	{Name: "route", Deps: []string{"setup", "library", "opt"}, Cached: true},
	{Name: "signoff", Deps: []string{"setup", "library", "gates", "opt", "route"}, Cached: true},
	{Name: "power", Deps: []string{"setup", "library", "signoff"}, Cached: true},
	{Name: "report", Deps: []string{"setup", "library", "gates", "synth", "opt", "signoff", "power"}, Cached: true},
}

var nodeByName = func() map[string]*Node {
	m := make(map[string]*Node, len(Nodes))
	for i := range Nodes {
		m[Nodes[i].Name] = &Nodes[i]
	}
	return m
}()

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

// closures maps every node to its key-field closure (see the package doc),
// computed once from Nodes, Deps and StageKeys.
var closures = func() map[string][]string {
	out := make(map[string][]string, len(Nodes))
	for i := range Nodes {
		n := &Nodes[i]
		set := map[string]bool{}
		for _, f := range flow.KeyFields(n.Name) {
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

// ids computes every node's artifact ID for a config. cfg must be normalized.
func ids(cfg flow.Config) map[string]string {
	out := make(map[string]string, len(Nodes))
	for i := range Nodes {
		name := Nodes[i].Name
		out[name] = cfg.ArtifactID(name, closures[name])
	}
	return out
}

// Reaches reports whether `to` is in the transitive dependency closure of
// `from` — the reachability the DAG consistency test checks artifact edges
// against.
func Reaches(from, to string) bool {
	n, ok := nodeByName[from]
	if !ok {
		return false
	}
	for _, d := range n.Deps {
		if d == to || Reaches(d, to) {
			return true
		}
	}
	return false
}
