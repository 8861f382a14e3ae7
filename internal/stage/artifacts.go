package stage

import (
	"bytes"
	"encoding/json"
	"fmt"

	"tmi3d/internal/flow"
)

// Artifact codec. Each cached node's artifact is the canonical encoding of
// its flow envelope (flow.WLMArtifact through flow.PowerArtifact); the report
// node's is the raw flow.EncodeResult payload, byte-for-byte what the serving
// layer serves.

// encodeArtifact renders the canonical bytes of an envelope.
func encodeArtifact(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("stage: encode artifact: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeNode parses a node's artifact bytes into its envelope. The engine
// routes every artifact — freshly computed or loaded from a cache tier —
// through this decoder, so consumers always see the decoded form and cold and
// warm executions are identical by construction.
func decodeNode(name string, data []byte) (any, error) {
	var v any
	switch name {
	case "wlm":
		v = &flow.WLMArtifact{}
	case "synth":
		v = &flow.SynthArtifact{}
	case "place":
		v = &flow.PlaceArtifact{}
	case "opt":
		v = &flow.OptArtifact{}
	case "route":
		v = &flow.RouteArtifact{}
	case "signoff":
		v = &flow.SignoffArtifact{}
	case "power":
		v = &flow.PowerArtifact{}
	case "report":
		// The report artifact is the flow result's wire payload itself.
		return data, nil
	default:
		return nil, fmt.Errorf("stage: no artifact codec for node %q", name)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return nil, fmt.Errorf("stage: decode %s artifact: %w", name, err)
	}
	return v, nil
}
