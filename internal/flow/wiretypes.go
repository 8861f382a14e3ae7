package flow

// WireTypes is the declarative manifest of every type whose encoded form
// crosses a process boundary: the daemon response (EncodeResult/DecodeResult
// over Result), the per-stage artifact envelopes of nodes.go (the staged
// engine's cache entries), and the castore entry header. The wiresafe
// analyzer (internal/vet) proves each entry's codec total and symmetric on
// every CI run: a struct field silently dropped by its Marshal/Unmarshal
// pair, a field the decoder restores but the encoder never writes, or a
// codec type missing from this map is a diagnostic. Fields deliberately off
// the wire carry a //tmi3dvet:nonwire audit on their declaration.
//
// The map value lists per-type attributes. "nonfinite" marks a type whose
// float fields can legitimately hold ±Inf or NaN (an STA result with no
// constrained endpoints has WNS = +Inf): its wire struct must route every
// float through the NaN/Inf-safe codec, and copying its float fields into a
// plain-JSON wire type anywhere in the module is a diagnostic — encoding/json
// rejects non-finite values outright, so such a copy is a latent encode
// failure on exactly the degenerate inputs nobody tests.
//
// This matters now because ROADMAP item 2 ships these bytes between nodes:
// within one process a dropped field is a cache-tier identity bug; across a
// worker fleet it is silent result corruption.
var WireTypes = map[string][]string{
	"internal/castore.storeHeader":  {},
	"internal/cts.Result":           {},
	"internal/equiv.LibReport":      {},
	"internal/equiv.Report":         {},
	"internal/flow.Config":          {},
	"internal/flow.OptArtifact":     {},
	"internal/flow.PlaceArtifact":   {},
	"internal/flow.PowerArtifact":   {},
	"internal/flow.Result":          {},
	"internal/flow.RouteArtifact":   {},
	"internal/flow.SignoffArtifact": {},
	"internal/flow.SynthArtifact":   {},
	"internal/flow.WLMArtifact":     {},
	"internal/liberty.Library":      {},
	"internal/lint.Report":          {},
	"internal/netlist.Design":       {},
	"internal/netlist.Net":          {},
	"internal/netlist.Stats":        {},
	"internal/opt.Stats":            {},
	"internal/place.Snapshot":       {},
	"internal/power.Report":         {},
	"internal/route.Result":         {},
	"internal/sta.Result":           {"nonfinite"},
	"internal/wlm.Model":            {},
}
