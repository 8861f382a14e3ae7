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

// decodeArtifact parses a node's artifact bytes, as read from the store, into
// a fresh envelope of the node's type; the engine hands computed envelopes on
// as they are. The report's decoded form is its payload bytes.
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
