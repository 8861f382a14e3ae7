package flow

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// EncodeResult renders the canonical wire encoding of a flow result: compact
// JSON with sorted map keys and unescaped HTML, terminated by a newline.
// Two encodings of equal results are byte-identical; this is the report-stage
// artifact of the staged engine (internal/stage), which the serving layer
// serves to clients as is.
func EncodeResult(r *Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		return nil, fmt.Errorf("flow: encode result: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeResult parses a payload written by EncodeResult. The returned result
// carries no Design/Placement (they never go over the wire).
func DecodeResult(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("flow: decode result: %w", err)
	}
	return &r, nil
}
