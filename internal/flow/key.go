package flow

import (
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"

	"tmi3d/internal/tech"
)

// Key returns the canonical cache key of a configuration: two configs share a
// key exactly when Run would produce identical results. Every result-affecting
// field participates at full precision — floats are formatted with
// strconv.FormatFloat(-1), which round-trips, so sweep points that differ by
// less than a printable unit (e.g. Fig 4 clocks 0.4 ps apart) never collide.
func (c Config) Key() string {
	var b strings.Builder
	c.writePhysicalKey(&b)
	// Gate modes never change the layout, but they change the Result
	// (reports attached or not), so cached entries must not alias.
	b.WriteString("|lint=")
	b.WriteString(strconv.Itoa(int(c.Lint)))
	b.WriteString("|equiv=")
	b.WriteString(strconv.Itoa(int(c.Equiv)))
	return b.String()
}

// writePhysicalKey emits the fields that determine the physical design —
// the layout-relevant subset of Key.
func (c Config) writePhysicalKey(b *strings.Builder) {
	c.writeKeyTerms(b, c.ClockPs)
}

// writeKeyTerms renders the physical key with an explicit clock term. Key
// passes the real ClockPs; DeriveSeed pins it to 0: synthesis and placement
// run at the base (Table 12) clock regardless of a sweep override — the
// override is applied at the pre-route opt stage — so the RNG stream, and
// with it the placement, is shared across sweep points. Without that, the
// per-stage cache (internal/stage) could never reuse a synthesized or placed
// artifact across a clock sweep.
func (c Config) writeKeyTerms(b *strings.Builder, clockPs float64) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	b.WriteString(c.Circuit)
	b.WriteString("|scale=")
	b.WriteString(f(c.Scale))
	b.WriteString("|node=")
	b.WriteString(strconv.Itoa(int(c.Node)))
	b.WriteString("|mode=")
	b.WriteString(strconv.Itoa(int(c.Mode)))
	b.WriteString("|clock=")
	b.WriteString(f(clockPs))
	b.WriteString("|util=")
	b.WriteString(f(c.Util))
	b.WriteString("|pincap=")
	b.WriteString(f(c.PinCapScale))
	b.WriteString("|res=")
	// Map iteration order is random; sort by layer class for a stable key.
	classes := make([]int, 0, len(c.ResistivityScale))
	for cl := range c.ResistivityScale {
		classes = append(classes, int(cl))
	}
	sort.Ints(classes)
	for _, cl := range classes {
		b.WriteString(strconv.Itoa(cl))
		b.WriteByte(':')
		b.WriteString(f(c.ResistivityScale[tech.LayerClass(cl)]))
		b.WriteByte(',')
	}
	b.WriteString("|wlm2d=")
	b.WriteString(strconv.FormatBool(c.Use2DWLM))
	b.WriteString("|act=")
	b.WriteString(f(c.Activities.PrimaryInput))
	b.WriteByte('/')
	b.WriteString(f(c.Activities.SeqOutput))
	b.WriteString("|seed=")
	b.WriteString(strconv.FormatUint(c.Seed, 10))
}

// DeriveSeed mixes the study seed with the physical configuration so every
// distinct flow gets its own RNG stream. The derivation is a pure function of
// the config, which is what makes parallel execution bit-identical to serial:
// no stage consumes randomness whose value depends on scheduling order.
// Gate modes (Lint, Equiv) are excluded — observation must not move the
// layout. ClockPs is excluded too (the clock term is pinned to 0): the
// override only steers the post-placement stages, so sweep points must draw
// from the same stream to share their synth/place artifacts.
func (c Config) DeriveSeed() uint64 {
	var b strings.Builder
	c.writeKeyTerms(&b, 0)
	h := fnv.New64a()
	h.Write([]byte(b.String()))
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
// (route, opt, sta in the ECO loop) accumulate. Exported so the staged
// engine (internal/stage) can thread one profile through the node functions
// Run calls; timing is observational only.
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
