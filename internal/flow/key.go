package flow

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"tmi3d/internal/lint"
	"tmi3d/internal/power"
	"tmi3d/internal/tech"
)

// idVersion versions the artifact-ID formula; a change to it, or to any
// artifact envelope's bytes, must bump it so stale stores miss.
const idVersion = "tmi3d-stage-v2"

// KeyFields returns a stage's key fields, sorted: its StageKeys entry minus
// Workers. Worker budgets never change result bytes (the ParLoops
// determinism contract), so keying on them would split identical artifacts.
func KeyFields(stage string) []string {
	out := make([]string, 0, len(StageKeys[stage]))
	for _, f := range StageKeys[stage] {
		if f != "Workers" {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// reportKeyFields is the report stage's key: every Config field but Workers.
var reportKeyFields = KeyFields("report")

// ArtifactID content-addresses the artifact of the named stage:
//
//	id = sha256(idVersion, name, field=FieldKeyTerm(field) over fields)
//
// The staged engine passes each node's sorted key-field closure. c must be
// normalized (Normalized).
func (c Config) ArtifactID(name string, fields []string) string {
	var b strings.Builder
	b.Grow(256) // the report's fields render to ~150 bytes: one allocation
	b.WriteString(idVersion)
	b.WriteByte(0)
	b.WriteString(name)
	for _, f := range fields {
		b.WriteByte(0)
		b.WriteString(f)
		b.WriteByte('=')
		b.WriteString(c.FieldKeyTerm(f))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Key returns the canonical cache key of a configuration: the artifact ID of
// its report, which the staged engine stores the payload under. Two configs
// share a key exactly when Run would produce identical results: every field
// but Workers participates, at full precision, so sweep points that differ by
// less than a printable unit (e.g. Fig 4 clocks 0.4 ps apart) never collide.
func (c Config) Key() string {
	return c.Normalized().ArtifactID("report", reportKeyFields)
}

// FieldKeyTerm renders one Config field's value canonically (keyTerm) — the
// form Key, the staged engine's artifact IDs and its per-stage keys are built
// from. It panics on a name that is not a key field.
func (c Config) FieldKeyTerm(field string) string {
	var v any
	switch field {
	case "Circuit":
		v = c.Circuit
	case "Scale":
		v = c.Scale
	case "Node":
		v = c.Node
	case "Mode":
		v = c.Mode
	case "ClockPs":
		v = c.ClockPs
	case "Util":
		v = c.Util
	case "PinCapScale":
		v = c.PinCapScale
	case "ResistivityScale":
		v = c.ResistivityScale
	case "Use2DWLM":
		v = c.Use2DWLM
	case "Activities":
		v = c.Activities
	case "Seed":
		v = c.Seed
	case "Lint":
		v = c.Lint
	case "Equiv":
		v = c.Equiv
	default:
		panic("flow: FieldKeyTerm: unknown Config field " + field)
	}
	return keyTerm(v)
}

// keyTerm renders a config value canonically: floats in strconv's shortest
// round-trip form, enums as their integer, maps sorted by key.
func keyTerm(v any) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch v := v.(type) {
	case string:
		return v
	case float64:
		return f(v)
	case bool:
		return strconv.FormatBool(v)
	case uint64:
		return strconv.FormatUint(v, 10)
	case tech.Node:
		return strconv.Itoa(int(v))
	case tech.Mode:
		return strconv.Itoa(int(v))
	case lint.GateMode:
		return strconv.Itoa(int(v))
	case power.Activities:
		return f(v.PrimaryInput) + "/" + f(v.SeqOutput)
	case map[tech.LayerClass]float64:
		classes := make([]int, 0, len(v))
		for cl := range v {
			classes = append(classes, int(cl))
		}
		sort.Ints(classes)
		var b strings.Builder
		for _, cl := range classes {
			b.WriteString(strconv.Itoa(cl))
			b.WriteByte(':')
			b.WriteString(f(v[tech.LayerClass(cl)]))
			b.WriteByte(',')
		}
		return b.String()
	}
	panic(fmt.Sprintf("flow: keyTerm: no canonical form for %T", v))
}

// DeriveSeed mixes the study seed with the physical configuration so every
// distinct flow gets its own RNG stream. The derivation is a pure function of
// the config, which is what makes parallel execution bit-identical to serial:
// no stage consumes randomness whose value depends on scheduling order.
//
// It hashes the setup stage's key fields (StageKeys["setup"] minus Workers),
// each behind a fixed label and rendered by keyTerm. The gate modes (Lint,
// Equiv) are left out — observation must not move the layout — and so is
// ClockPs, whose term is pinned to 0: the override only steers the
// post-placement stages, so sweep points must draw from the same stream to
// share their synth/place artifacts. The terms are values, not field names
// rendered by FieldKeyTerm, so stagedeps sees setup read exactly these fields.
func (c Config) DeriveSeed() uint64 {
	terms := [...]struct {
		label string
		value any
	}{
		{"", c.Circuit}, {"|scale=", c.Scale}, {"|node=", c.Node}, {"|mode=", c.Mode},
		{"|clock=", 0.0}, {"|util=", c.Util}, {"|pincap=", c.PinCapScale},
		{"|res=", c.ResistivityScale}, {"|wlm2d=", c.Use2DWLM}, {"|act=", c.Activities},
		{"|seed=", c.Seed},
	}
	h := fnv.New64a()
	for _, t := range terms {
		io.WriteString(h, t.label)
		io.WriteString(h, keyTerm(t.value))
	}
	return h.Sum64()
}

// StageTime is the wall-clock cost of one flow stage. Workers is the
// intra-flow worker budget the stage's parallel loops ran under (1 for
// stages that are serial by construction) — the profile column that shows
// whether a slow stage was actually using its cores.
type StageTime struct {
	Stage   string
	D       time.Duration
	Workers int
}

// Profile accumulates wall-clock per named stage, preserving first-seen
// order so reports read in pipeline order. Stages that run more than once
// (route, opt, sta in the ECO loop) accumulate. Each walk threads one
// profile through the stage bodies; timing is observational only.
type Profile struct {
	order   []string
	acc     map[string]time.Duration
	workers map[string]int
}

// NewProfile returns an empty stage-time profile.
func NewProfile() *Profile {
	return &Profile{acc: map[string]time.Duration{}, workers: map[string]int{}}
}

// Add records a serial stage interval.
func (t *Profile) Add(stage string, d time.Duration) { t.AddPar(stage, d, 1) }

// AddPar records a stage interval that ran under the given worker budget.
func (t *Profile) AddPar(stage string, d time.Duration, workers int) {
	if _, ok := t.acc[stage]; !ok {
		t.order = append(t.order, stage)
	}
	t.acc[stage] += d
	if workers > t.workers[stage] {
		t.workers[stage] = workers
	}
}

// Times returns the accumulated per-stage costs in first-seen order.
func (t *Profile) Times() []StageTime {
	out := make([]StageTime, 0, len(t.order))
	for _, s := range t.order {
		out = append(out, StageTime{Stage: s, D: t.acc[s], Workers: t.workers[s]})
	}
	return out
}
