package stage

import (
	"testing"

	"tmi3d/internal/flow"
	"tmi3d/internal/tech"
)

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
	norm := cfg.Normalized()
	for i := range flow.Nodes {
		n := &flow.Nodes[i]
		if !n.Cached {
			continue
		}
		if got := n.ID(norm); got != want[n.Name] {
			t.Errorf("%s artifact ID = %s, pinned %s", n.Name, got, want[n.Name])
		}
	}
	if key := cfg.Key(); key != want["report"] {
		t.Errorf("Key() = %s, pinned report ID %s", key, want["report"])
	}
}
