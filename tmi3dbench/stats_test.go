package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("empty input must give NaN")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
}

// The tail rule: a percentile is reported only with at least minTail
// samples beyond it, and the report carries the sample count.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, // 10 beyond
		{999, 99, false}, // 9 beyond
		{100, 90, true},
		{99, 90, false},
		{30, 99, false},
		{20000, 99.9, true},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, p%g) = %v, want %v (beyond=%d)", c.n, c.p, got, c.want, beyond(c.n, c.p))
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if s := tailNote(xs, 99); !strings.Contains(s, "1000 samples") || !strings.Contains(s, "10 beyond") {
		t.Errorf("tailNote = %q, want the sample count and the count beyond", s)
	}
	if s := tailNote(xs[:30], 99); !strings.HasPrefix(s, "n/a") || !strings.Contains(s, "30 samples") {
		t.Errorf("tailNote on 30 samples = %q, want n/a with the sample count", s)
	}
}
