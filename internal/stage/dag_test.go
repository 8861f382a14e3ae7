package stage

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"tmi3d/internal/flow"
	"tmi3d/internal/tech"
	"tmi3d/internal/vet"
)

// The DAG and the StageKeys manifest must name exactly the same stages, in
// dependency-consistent order, with every key field renderable by
// FieldKeyTerm — the static contract artifact IDs are built from.
func TestDAGMatchesStageKeys(t *testing.T) {
	seen := map[string]bool{}
	for i := range Nodes {
		n := &Nodes[i]
		if seen[n.Name] {
			t.Errorf("node %q declared twice", n.Name)
		}
		for _, dep := range n.Deps {
			if !seen[dep] {
				t.Errorf("node %q depends on %q, which is not declared before it (topological order)", n.Name, dep)
			}
		}
		seen[n.Name] = true
		if _, ok := flow.StageKeys[n.Name]; !ok {
			t.Errorf("node %q has no StageKeys entry", n.Name)
		}
	}
	for stage := range flow.StageKeys {
		if !seen[stage] {
			t.Errorf("StageKeys stage %q has no DAG node", stage)
		}
	}

	// FieldKeyTerm is total over the manifest's key domain (Workers excepted:
	// it is filtered from every key — worker count never changes result
	// bytes), and sensitive to the fields the clock sweep relies on.
	cfg := flow.Config{
		Circuit: "AES", Scale: 0.5, Node: tech.N45, Mode: tech.ModeTMI,
		ClockPs: 850, Util: 0.6, PinCapScale: 0.9,
		ResistivityScale: map[tech.LayerClass]float64{tech.ClassLocal: 1.5},
	}
	for stage, fields := range flow.StageKeys {
		for _, f := range fields {
			if f == "Workers" {
				continue
			}
			if got := cfg.FieldKeyTerm(f); got == "" && f != "Circuit" {
				t.Errorf("FieldKeyTerm(%q) (stage %q) is empty", f, stage)
			}
		}
	}
	base := KeyString(cfg, "opt")
	swept := cfg
	swept.ClockPs = 1000
	if KeyString(swept, "opt") == base {
		t.Error("opt key is insensitive to ClockPs: sweep points would collide")
	}
	if KeyString(swept, "synth") != KeyString(cfg, "synth") {
		t.Error("synth key is sensitive to ClockPs: sweep points would not share synthesis")
	}

	// Every key-field closure lies inside the report's key fields, so the
	// report ID alone pins the whole config.
	reportFields := map[string]bool{}
	for _, f := range flow.StageKeys["report"] {
		reportFields[f] = true
	}
	for name, fields := range closures {
		for _, f := range fields {
			if f == "Workers" || !reportFields[f] {
				t.Errorf("closure of %q holds %q, outside StageKeys[report] minus Workers", name, f)
			}
		}
	}

	// IDs are shared exactly when the closure fields agree: changing one
	// field moves the IDs of precisely the nodes whose closure holds it.
	cfg = cfg.Normalized()
	baseIDs := ids(cfg)
	for _, f := range keyFields("report") {
		moved := perturb(t, cfg, f)
		if moved.FieldKeyTerm(f) == cfg.FieldKeyTerm(f) {
			t.Fatalf("perturb(%s) left the key term unchanged", f)
		}
		movedIDs := ids(moved)
		for i := range Nodes {
			name := Nodes[i].Name
			in := slices.Contains(closures[name], f)
			if split := movedIDs[name] != baseIDs[name]; split != in {
				t.Errorf("changing %s: %s ID split=%v, closure holds it=%v", f, name, split, in)
			}
		}
	}
	workers := cfg
	workers.Workers = 7
	if !maps.Equal(ids(workers), baseIDs) {
		t.Error("Workers moved an artifact ID")
	}
	// The clock sweep's instance: points share wlm/synth/place, split from opt on.
	sweptIDs := ids(swept.Normalized())
	for _, name := range []string{"wlm", "synth", "place"} {
		if sweptIDs[name] != baseIDs[name] {
			t.Errorf("clock sweep points do not share %s", name)
		}
	}
	for _, name := range []string{"opt", "route", "signoff", "power", "report"} {
		if sweptIDs[name] == baseIDs[name] {
			t.Errorf("clock sweep points share %s", name)
		}
	}
}

// perturb returns cfg with one key field changed.
func perturb(t *testing.T, cfg flow.Config, field string) flow.Config {
	t.Helper()
	switch field {
	case "Activities":
		cfg.Activities.PrimaryInput += 0.1
	case "Circuit":
		cfg.Circuit = "DES"
	case "ClockPs":
		cfg.ClockPs++
	case "Equiv":
		cfg.Equiv++
	case "Lint":
		cfg.Lint++
	case "Mode":
		cfg.Mode++
	case "Node":
		cfg.Node++
	case "PinCapScale":
		cfg.PinCapScale += 0.1
	case "ResistivityScale":
		cfg.ResistivityScale = map[tech.LayerClass]float64{tech.ClassGlobal: 2}
	case "Scale":
		cfg.Scale += 0.1
	case "Seed":
		cfg.Seed++
	case "Use2DWLM":
		cfg.Use2DWLM = !cfg.Use2DWLM
	case "Util":
		cfg.Util += 0.1
	default:
		t.Fatalf("perturb: no rule for key field %s", field)
	}
	return cfg
}

// Every inter-stage artifact edge the stagedeps analyzer measures over the
// monolithic flow.Run must lie inside the transitive closure of the DAG's
// declared Deps: an edge outside the closure means the engine would execute a
// stage without the artifacts the monolith feeds it.
func TestDAGCoversVetArtifactEdges(t *testing.T) {
	mod, err := vet.Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	res := vet.AnalyzeOpts(mod, vet.Options{
		Analyzers: []*vet.Analyzer{vet.StageDeps},
		PkgFilter: "internal/flow",
	})
	for _, d := range res.Diags {
		t.Errorf("stagedeps: %s", d)
	}
	edges := 0
	for _, sr := range res.Stages {
		if !strings.HasSuffix(sr.Package, "internal/flow") || sr.Func != "Run" {
			continue
		}
		if nodeByName[sr.Stage] == nil {
			t.Errorf("anchored stage %q has no DAG node", sr.Stage)
			continue
		}
		for artifact, src := range sr.ArtifactSources {
			edges++
			if src == sr.Stage {
				continue
			}
			if !Reaches(sr.Stage, src) {
				t.Errorf("stage %q consumes artifact %q defined in stage %q, but the DAG declares no path %s → %s",
					sr.Stage, artifact, src, sr.Stage, src)
			}
		}
	}
	if edges == 0 {
		t.Fatal("stagedeps exported no artifact edges for flow.Run — the analyzer or the anchors regressed")
	}
}
