package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile: with fewer, the "p99" is one or two unlucky samples, not a
// tail.
const minTail = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs: the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the midpoint median of xs (the mean of the two middle samples for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// beyond counts the samples strictly above the nearest-rank p-th percentile
// position, i.e. n − ⌈p·n/100⌉.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailSupported reports whether n samples put at least minTail samples beyond
// the p-th percentile.
func tailSupported(n int, p float64) bool { return beyond(n, p) >= minTail }

// tailNote renders a tail percentile with its sample count, or why it is not
// reported.
func tailNote(xs []float64, p float64) string {
	n := len(xs)
	if !tailSupported(n, p) {
		return fmt.Sprintf("n/a (%d samples, %d beyond p%g; needs >= %d)", n, beyond(n, p), p, minTail)
	}
	return fmt.Sprintf("%.6g s (%d samples, %d beyond)", percentile(xs, p), n, beyond(n, p))
}
