package flow

// StageKeys is the declarative per-stage cache-key contract for the cases of
// dispatch: for each stage, the Config fields whose values the stage's body
// may read. The stagedeps analyzer (internal/vet) diffs each case's statically
// computed transitive read set against this map on every CI run, so the
// manifest is proven sound — a field read here but missing from the key would
// serve stale cached artifacts; a listed field the stage never reads would
// split identical artifacts into distinct cache entries.
//
// Everything a stage consumes beyond its key fields is the value of a declared
// dep in Nodes (netlist, placement, the derived seed, the gate set), which the
// walk hands it and nothing else, and whose key fields the node's key-field
// closure includes.
//
// Reporting-only stages have empty keys on purpose: synth, place and route are
// pure functions of upstream artifacts, which is exactly what makes them
// cacheable at fine grain. ClockPs appears only at opt (and the whole-config
// report stage): a sweep override steers optimization and sign-off, never
// synthesis or placement, so clock-sweep points share every upstream artifact.
// opt, signoff and power each build the RC table from ResistivityScale.
var StageKeys = map[string][]string{
	"setup":    {"Activities", "Circuit", "Mode", "Node", "PinCapScale", "ResistivityScale", "Scale", "Seed", "Use2DWLM", "Util", "Workers"},
	"library":  {"Mode", "Node", "PinCapScale"},
	"generate": {"Circuit", "Node", "Scale"},
	"wlm":      {"Circuit", "Mode", "Node", "Use2DWLM", "Util"},
	"gates":    {"Circuit", "Equiv", "Lint", "Mode", "Node"},
	"synth":    {},
	"place":    {},
	"opt":      {"ClockPs", "ResistivityScale"},
	"route":    {},
	"signoff":  {"ResistivityScale"},
	"power":    {"Activities", "ResistivityScale"},
	"report":   {"Activities", "Circuit", "ClockPs", "Equiv", "Lint", "Mode", "Node", "PinCapScale", "ResistivityScale", "Scale", "Seed", "Use2DWLM", "Util", "Workers"},
}
