package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 10},
		{Name: "a", ID: 1, Parent: 0, Start: 1, End: 3},
		{Name: "b", ID: 2, Parent: 0, Start: 2, End: 5},  // overlaps a: counted once
		{Name: "c", ID: 3, Parent: 0, Start: 8, End: 12}, // clipped to the parent
		{Name: "a.x", ID: 4, Parent: 1, Start: 1.5, End: 2},
	}
	self := selfTimes(spans)
	// root covered by [1,5] ∪ [8,10] = 6 → self 4.
	for i, want := range []float64{4, 1.5, 3, 4, 0.5} {
		if !near(self[i], want) {
			t.Errorf("self(%s) = %g, want %g", spans[i].Name, self[i], want)
		}
	}
}

func TestDerivedChildrenAccountForParent(t *testing.T) {
	tr := newTracer()
	tr.newTrace()
	root := tr.begin("flow")
	id := tr.begin("synth")
	time.Sleep(3 * time.Millisecond)
	tr.end(id)
	tr.derive(id, []string{"equiv", "lint", "skipped"}, []time.Duration{time.Millisecond, 500 * time.Microsecond, 0})
	tr.end(root)
	if len(tr.spans) != 4 {
		t.Fatalf("got %d spans, want 4 (zero-length derived spans are dropped)", len(tr.spans))
	}
	self := selfTimes(tr.spans)
	synth := tr.spans[id]
	if !near(self[id], synth.dur()-0.0015) {
		t.Errorf("synth self = %g, want duration %g minus 1.5 ms of gates", self[id], synth.dur())
	}
	sum := 0.0
	for _, s := range self {
		sum += s
	}
	if !near(sum, tr.spans[root].dur()) {
		t.Errorf("self times sum to %g, want the root's wall %g", sum, tr.spans[root].dur())
	}
	if tr.spans[2].Start != synth.Start || !tr.spans[2].Derived || tr.spans[3].Start != tr.spans[2].End {
		t.Errorf("derived spans must be laid end to end from the parent's start: %+v", tr.spans[2:])
	}
}
