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
	assertKeyIsReportID(t, cfg, baseIDs)
	for _, f := range flow.KeyFields("report") {
		moved := perturb(t, cfg, f)
		if moved.FieldKeyTerm(f) == cfg.FieldKeyTerm(f) {
			t.Fatalf("perturb(%s) left the key term unchanged", f)
		}
		movedIDs := ids(moved)
		assertKeyIsReportID(t, moved, movedIDs)
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
	assertKeyIsReportID(t, workers, baseIDs)
	// The clock sweep's instance: points share wlm/synth/place, split from opt on.
	sweptIDs := ids(swept.Normalized())
	assertKeyIsReportID(t, swept, sweptIDs)
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

// assertKeyIsReportID checks that a config's Key is its report artifact ID —
// the ID the engine stores the payload under and serve probes with.
func assertKeyIsReportID(t *testing.T, cfg flow.Config, idByName map[string]string) {
	t.Helper()
	if key := cfg.Key(); key != idByName["report"] {
		t.Errorf("Key() = %s, report artifact ID = %s", key, idByName["report"])
	}
}

// TestArtifactIDsPinned pins the cached nodes' artifact IDs for one config. A
// persistent store filled by an earlier build serves a warm run only while
// these hold; an intended change to the formula or to any envelope's bytes
// must bump idVersion and re-pin.
func TestArtifactIDsPinned(t *testing.T) {
	cfg := flow.Config{
		Circuit: "AES", Scale: 0.5, Node: tech.N45, Mode: tech.ModeTMI,
		ClockPs: 850, Util: 0.6, PinCapScale: 0.9,
		ResistivityScale: map[tech.LayerClass]float64{tech.ClassLocal: 1.5},
	}
	want := map[string]string{
		"wlm":     "9c6b3543417697fd813d04a1a33f5705ca589ffdf18f31d0253b5255b46e34ca",
		"synth":   "a88abcf06a66d0311eb9cc5af3ccfb1c06f4b77bd4fdd819a367baa045ee3f18",
		"place":   "e64d4e324d57b0f44e8ae550122d85b429eb0b12ee9c871d7927062e823c3350",
		"opt":     "6882a2de37f138979f67e9638258e44bd0bbb052b0b4a28d401dd5c4b1bf812a",
		"route":   "9ff8a73bd0a7008451ecc48fc78a083626810f2e66477f9f731b9bee0bbd47f3",
		"signoff": "56ecd24223b42d421322c56c1e73873df25ab81426d905ecb923f4dfeb29ccb6",
		"power":   "cc89caf7767a254f92b133efe33bbad8acfdade31b6ef176089be6f8af92fcd7",
		"report":  "32217b1a5d25ae874a31eecddea163bb27e51dc0357f2ca51cb0bbb03ef09ea7",
	}
	got := ids(cfg.Normalized())
	for i := range Nodes {
		n := &Nodes[i]
		if !n.Cached {
			continue
		}
		if got[n.Name] != want[n.Name] {
			t.Errorf("%s artifact ID = %s, pinned %s", n.Name, got[n.Name], want[n.Name])
		}
	}
	if key := cfg.Key(); key != want["report"] {
		t.Errorf("Key() = %s, pinned report ID %s", key, want["report"])
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
