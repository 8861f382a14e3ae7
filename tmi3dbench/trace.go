package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one traced interval around a call into a layer. Times are seconds
// since the tracer's epoch; alloc and GC CPU are runtime/metrics deltas over
// the interval.
type span struct {
	Name       string  `json:"name"`
	Trace      int     `json:"trace"`
	ID         int     `json:"id"`
	Parent     int     `json:"parent"` // -1 for a root
	Start      float64 `json:"start_s"`
	End        float64 `json:"end_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCPU      float64 `json:"gc_cpu_s"`
	CPU        float64 `json:"cpu_s"`
	GCCycles   uint64  `json:"gc_cycles"`
	// Derived marks a span reconstructed from a flow.Profile delta rather
	// than timed around a call: its length is measured, its position within
	// the parent is nominal (laid end to end from the parent's start).
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// Runtime counters read at every span boundary.
var traceMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

type rtSample struct {
	alloc    uint64
	gcCPU    float64
	cpu      float64
	gcCycles uint64
}

// tracer records spans in memory; write dumps them at the end of a run. It is
// used from one goroutine at a time.
type tracer struct {
	epoch   time.Time
	spans   []span
	open    map[int]rtSample
	stack   []int
	trace   int
	samples []metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), open: map[int]rtSample{}}
	t.samples = make([]metrics.Sample, len(traceMetrics))
	for i, name := range traceMetrics {
		t.samples[i].Name = name
	}
	return t
}

func (t *tracer) now() float64 { return time.Since(t.epoch).Seconds() }

func (t *tracer) read() rtSample {
	metrics.Read(t.samples)
	var r rtSample
	if v := t.samples[0].Value; v.Kind() == metrics.KindUint64 {
		r.alloc = v.Uint64()
	}
	if v := t.samples[1].Value; v.Kind() == metrics.KindFloat64 {
		r.gcCPU = v.Float64()
	}
	if v := t.samples[2].Value; v.Kind() == metrics.KindFloat64 {
		r.cpu = v.Float64()
	}
	if v := t.samples[3].Value; v.Kind() == metrics.KindUint64 {
		r.gcCycles = v.Uint64()
	}
	return r
}

// newTrace starts a new trace ID; the next begin with an empty stack opens
// its root.
func (t *tracer) newTrace() int {
	t.trace++
	return t.trace
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Trace: t.trace, ID: id, Parent: parent})
	t.stack = append(t.stack, id)
	t.open[id] = t.read()
	t.spans[id].Start = t.now()
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	end := t.now()
	r := t.read()
	r0 := t.open[id]
	delete(t.open, id)
	s := &t.spans[id]
	s.End = end
	s.AllocBytes = r.alloc - r0.alloc
	s.GCCPU = r.gcCPU - r0.gcCPU
	s.CPU = r.cpu - r0.cpu
	s.GCCycles = r.gcCycles - r0.gcCycles
	t.stack = t.stack[:len(t.stack)-1]
}

// do wraps fn in a span.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// derive adds closed child spans of parent whose lengths were measured
// inside the parent's call (flow.Profile entries): laid end to end from the
// parent's start, in the given order.
func (t *tracer) derive(parent int, names []string, ds []time.Duration) {
	at := t.spans[parent].Start
	for i, name := range names {
		if ds[i] <= 0 {
			continue
		}
		d := ds[i].Seconds()
		t.spans = append(t.spans, span{
			Name: name, Trace: t.spans[parent].Trace, ID: len(t.spans), Parent: parent,
			Start: at, End: at + d, Derived: true,
		})
		at += d
	}
}

// selfTimes returns each span's duration minus the part of its interval its
// children cover (children clipped to the parent; overlapping children
// counted once).
func selfTimes(spans []span) []float64 {
	kids := make(map[int][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals within
// [lo, hi].
func covered(lo, hi float64, children []span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, 0.0
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
