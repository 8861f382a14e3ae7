// Package serve is the PPA-as-a-service layer: an HTTP daemon that answers
// power/performance/area queries over the full design flow. It keeps only
// admission — a bounded job queue with singleflight deduplication,
// backpressure, deadlines and drain — in front of one stage engine
// (internal/stage), which executes every flow and is the only cache: the
// engine's report artifact is the /v1/ppa payload.
//
// The serving contract is byte-identity: a response for a flow configuration
// is exactly flow.EncodeResult(flow.Run(cfg)) — whether it was computed on
// this request, deduplicated onto a concurrent identical request, or served
// from the engine's memory tier or its on-disk store. Everything in the
// package is built to preserve that property (canonical JSON, checksummed
// store entries, deterministic flow seeds).
package serve
