// Package fixture seeds stagedeps violations around a dispatch function whose
// StageKeys manifest deliberately drifts from the measured read sets: an
// uncovered field read, a dead key field, an unknown field name, a stage
// missing from the manifest, a dead manifest stage, Config reads outside
// every stage case (before the switch and in its default clause), an ambient
// mutable-state read, executor state carrying a second Config, and a
// dispatch without a Config parameter. Expected diagnostics live in
// expect.txt.
package fixture

// Config mirrors the flow.Config shape at small scale.
type Config struct {
	Circuit string
	Scale   float64
	Mode    int
	Util    float64
}

// StageKeys drifts from the dispatch below on purpose.
var StageKeys = map[string][]string{
	"load":  {"Circuit", "Scale"}, // Scale is a seeded dead key field
	"build": {"Mode"},             // the Util read is seeded uncovered
	"emit":  {"Bogus"},            // seeded unknown field name
	"ghost": {},                   // seeded dead manifest stage
}

// table is read-only after initialization: reading it in a stage is fine.
var table = [4]int{1, 2, 3, 4}

// counter is mutable ambient state; its staged read is a seeded violation.
var counter int

// hits is equally mutable, but its staged access carries a reasoned
// suppression, which stagedeps honors (and globalmut audits).
var hits int

func (c Config) modeCode() int { return c.Mode }

func seedOf(c Config) int { return len(c.Circuit) + c.modeCode() }

// inputs are the dep values a stage receives; they hold no Config.
type inputs struct {
	vals map[string]int
}

// Pipeline runs one stage per case.
//
//tmi3dvet:dispatch
func Pipeline(cfg Config, name string, in *inputs) int {
	if cfg.Mode < 0 { // seeded: a Config read outside every stage case
		return 0
	}
	switch name {
	case "load":
		return len(cfg.Circuit)
	case "build":
		counter++ // seeded: ambient mutable state touched inside a stage case
		//tmi3dvet:global fixture: observational hit counter, reset between runs
		hits++
		return cfg.modeCode() + int(cfg.Util) + in.vals["load"]
	case "emit":
		if cfg.Scale > 0 {
			return in.vals["build"] + table[0]
		}
		return 0
	case "unmapped":
		return in.vals["emit"] + seedOf(cfg)
	default:
		return int(cfg.Util) // seeded: the default clause names no stage
	}
}

// state smuggles a second Config to the stages.
type state struct {
	raw *Config
}

// leaky hands its stages executor state that carries a Config.
//
//tmi3dvet:dispatch
func leaky(cfg Config, name string, st state) int {
	switch name {
	case "load":
		return len(cfg.Circuit)
	}
	return 0
}

// orphan is a dispatch with no config to attribute reads to.
//
//tmi3dvet:dispatch
func orphan(name string) int {
	switch name {
	case "lost":
		return 1
	}
	return 0
}

var _, _ = leaky, orphan
