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

// decodeArtifact parses a node's artifact bytes into a fresh envelope of the
// node's type. The engine routes every artifact — freshly computed or loaded
// from a cache tier — through this decoder, so consumers always see the
// decoded form and cold and warm executions are identical by construction.
// The report's decoded form is its payload bytes.
func decodeArtifact(n *flow.Node, data []byte) (any, error) {
	if n.Envelope == nil {
		return data, nil
	}
	v := n.Envelope()
	if err := json.Unmarshal(data, v); err != nil {
		return nil, fmt.Errorf("stage: decode %s artifact: %w", n.Name, err)
	}
	return v, nil
}
