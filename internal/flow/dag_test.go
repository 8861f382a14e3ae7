package flow

import (
	"maps"
	"slices"
	"testing"

	"tmi3d/internal/tech"
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
		if _, ok := StageKeys[n.Name]; !ok {
			t.Errorf("node %q has no StageKeys entry", n.Name)
		}
	}
	for stage := range StageKeys {
		if !seen[stage] {
			t.Errorf("StageKeys stage %q has no DAG node", stage)
		}
	}

	// FieldKeyTerm is total over the manifest's key domain (Workers excepted:
	// it is filtered from every key — worker count never changes result
	// bytes), and sensitive to the fields the clock sweep relies on.
	cfg := Config{
		Circuit: "AES", Scale: 0.5, Node: tech.N45, Mode: tech.ModeTMI,
		ClockPs: 850, Util: 0.6, PinCapScale: 0.9,
		ResistivityScale: map[tech.LayerClass]float64{tech.ClassLocal: 1.5},
	}
	for stage, fields := range StageKeys {
		for _, f := range fields {
			if f == "Workers" {
				continue
			}
			if got := cfg.FieldKeyTerm(f); got == "" && f != "Circuit" {
				t.Errorf("FieldKeyTerm(%q) (stage %q) is empty", f, stage)
			}
		}
	}
	swept := cfg
	swept.ClockPs = 1000
	if !slices.Contains(KeyFields("opt"), "ClockPs") {
		t.Error("opt key is insensitive to ClockPs: sweep points would collide")
	}
	if slices.Contains(closures["synth"], "ClockPs") {
		t.Error("synth key is sensitive to ClockPs: sweep points would not share synthesis")
	}

	// Every key-field closure lies inside the report's key fields, so the
	// report ID alone pins the whole config.
	reportFields := map[string]bool{}
	for _, f := range StageKeys["report"] {
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
	for _, f := range KeyFields("report") {
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
func assertKeyIsReportID(t *testing.T, cfg Config, idByName map[string]string) {
	t.Helper()
	if key := cfg.Key(); key != idByName["report"] {
		t.Errorf("Key() = %s, report artifact ID = %s", key, idByName["report"])
	}
}

// perturb returns cfg with one key field changed.
func perturb(t *testing.T, cfg Config, field string) Config {
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

// ids computes every node's artifact ID for a normalized config.
func ids(cfg Config) map[string]string {
	out := make(map[string]string, len(Nodes))
	for i := range Nodes {
		out[Nodes[i].Name] = Nodes[i].ID(cfg)
	}
	return out
}
