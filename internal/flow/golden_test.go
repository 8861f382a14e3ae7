package flow

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/tech"
)

// goldenScale is the scale of the pinned Table 4 payloads in
// testdata/payload_digests.json.
const goldenScale = 0.05

// TestPayloadGolden pins the SHA-256 of the canonical payload of every
// Table 4 config (45nm, 2D and T-MI) at scale 0.05. The identity tests compare
// the staged engine with Run; this one catches a change to a stage body that
// moves both executors together.
func TestPayloadGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/payload_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var digests map[string]string
	if err := json.Unmarshal(want, &digests); err != nil {
		t.Fatal(err)
	}
	if len(digests) != 2*len(circuits.Names) {
		t.Fatalf("%d pinned digests, want %d", len(digests), 2*len(circuits.Names))
	}
	for _, name := range circuits.Names {
		for _, mode := range []tech.Mode{tech.Mode2D, tech.ModeTMI} {
			cfg := Config{Circuit: name, Scale: goldenScale, Node: tech.N45, Mode: mode}
			key := fmt.Sprintf("%s/%v/%v", name, cfg.Node, mode)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				r, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				payload, err := EncodeResult(r)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(payload)
				if got := hex.EncodeToString(sum[:]); got != digests[key] {
					t.Errorf("payload digest %s, pinned %s", got, digests[key])
				}
			})
		}
	}
}
