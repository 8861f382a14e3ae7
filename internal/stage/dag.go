// Package stage is the staged flow engine: it executes flow.Run's pipeline
// as an explicit DAG of the twelve anchored stages, content-addressing every
// stage's output so sweeps recompute only the dirty cone. A clock sweep
// reruns opt/route/signoff/power/report per point while generate, synthesis,
// and placement are computed once; a 2D-vs-T-MI compare shares whatever
// prefix its two configs agree on.
//
// # Content addressing
//
// Every node has a stage key — the exact flow.StageKeys Config fields of the
// corresponding //tmi3dvet:stage region, rendered canonically — and a key-field
// closure: the sorted union of its own key fields and those of every node
// upstream of it (Workers excluded). Its artifact ID hashes the closure:
//
//	id = sha256(version, name, field=term over the key-field closure)
//
// Two configs share a stage's artifact exactly when they agree on every field
// of its closure — the same sharing a chain of upstream IDs would give, at the
// cost of one hash per lookup. The report node's closure is the whole config,
// so the serving layer's cache probe hashes one string. Soundness rests on the
// stagedeps analyzer: it proves each region reads no Config field outside its
// manifest entry, and the DAG consistency test (dag_test.go) proves every
// cross-stage artifact edge the analyzer computes is carried by the Deps
// declared here.
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
	"crypto/sha256"
	"encoding/hex"
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

// keyFields returns the stage's key fields: its flow.StageKeys entry minus
// Workers (worker budgets never change result bytes — the ParLoops
// determinism contract — so they must not split artifacts).
func keyFields(name string) []string {
	fields := flow.StageKeys[name]
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		if f != "Workers" {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// KeyString renders a node's own stage key for a config in the canonical
// field=value form — what the `tmi3d stages` subcommand shows per node.
func KeyString(cfg flow.Config, name string) string {
	fields := keyFields(name)
	terms := make([]string, len(fields))
	for i, f := range fields {
		terms[i] = f + "=" + cfg.FieldKeyTerm(f)
	}
	return strings.Join(terms, "|")
}

const idVersion = "tmi3d-stage-v2"

// closures maps every node to its key-field closure (see the package doc),
// computed once from Nodes, Deps and StageKeys.
var closures = func() map[string][]string {
	out := make(map[string][]string, len(Nodes))
	for i := range Nodes {
		n := &Nodes[i]
		set := map[string]bool{}
		for _, f := range keyFields(n.Name) {
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

// artifactID is a node's artifact ID for a config. cfg must be normalized
// (cfg.Normalized()).
func artifactID(cfg flow.Config, name string) string {
	var b strings.Builder
	b.Grow(256) // the report's closure renders to ~150 bytes: one allocation
	b.WriteString(idVersion)
	b.WriteByte(0)
	b.WriteString(name)
	for _, f := range closures[name] {
		b.WriteByte(0)
		b.WriteString(f)
		b.WriteByte('=')
		b.WriteString(cfg.FieldKeyTerm(f))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// ids computes every node's artifact ID for a config. cfg must be normalized.
func ids(cfg flow.Config) map[string]string {
	out := make(map[string]string, len(Nodes))
	for i := range Nodes {
		out[Nodes[i].Name] = artifactID(cfg, Nodes[i].Name)
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
