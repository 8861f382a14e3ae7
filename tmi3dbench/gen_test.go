package main

import (
	"fmt"
	"reflect"
	"testing"

	"tmi3d/internal/tech"
)

func TestSweepPointsDeterministic(t *testing.T) {
	a, b := sweepConfigs(7, 0.15), sweepConfigs(7, 0.15)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different sweep points")
	}
	if reflect.DeepEqual(a, sweepConfigs(8, 0.15)) {
		t.Error("different seeds drew identical sweep points")
	}
	if len(a) != len(sweepCircuits)*sweepK {
		t.Fatalf("got %d points, want %d", len(a), len(sweepCircuits)*sweepK)
	}
	for ci, c := range sweepCircuits {
		// One point in each of the k slices of [1.0, 1.5] × base.
		slices := map[int]bool{}
		for _, p := range a[ci*sweepK : (ci+1)*sweepK] {
			if p.Circuit != c || p.Mode != tech.ModeTMI || p.Node != tech.N45 {
				t.Errorf("point %+v is not %s T-MI 45nm", p, c)
			}
			f := p.ClockPs / baseClock(c)
			if f < 1.0-1e-6 || f > 1.5+1e-6 {
				t.Errorf("%s factor %g outside [1.0, 1.5]", c, f)
			}
			slices[min(int((f-1.0)/0.5*sweepK), sweepK-1)] = true
		}
		if len(slices) != sweepK {
			t.Errorf("%s points cover %d of %d slices", c, len(slices), sweepK)
		}
	}
}

func TestRequestStreamDeterministic(t *testing.T) {
	const n = 12
	hits := make([]int, n)
	for i := int64(0); i < 12000; i++ {
		k := streamKey(3, i, n)
		if k != streamKey(3, i, n) {
			t.Fatal("stream is not a function of (seed, index)")
		}
		hits[k]++
	}
	for k, h := range hits {
		if h < 800 || h > 1200 {
			t.Errorf("key %d drawn %d of 12000 times; want roughly uniform", k, h)
		}
	}
	same := 0
	for i := int64(0); i < 1000; i++ {
		if streamKey(3, i, n) == streamKey(4, i, n) {
			same++
		}
	}
	if same > 200 {
		t.Errorf("seeds 3 and 4 agree on %d of 1000 requests", same)
	}
}

func TestMatrixOrderLongestFirstPairsAdjacent(t *testing.T) {
	a := matrixConfigs(0.15, 5, 0)
	if !reflect.DeepEqual(a, matrixConfigs(0.15, 5, 0)) {
		t.Fatal("the same seed gave a different submission order")
	}
	orders := map[string]bool{}
	for seed := uint64(0); seed < 20; seed++ {
		orders[fmt.Sprint(matrixConfigs(0.15, seed, 0))] = true
	}
	if len(orders) < 5 {
		t.Errorf("20 seeds gave only %d distinct orders", len(orders))
	}
	seen := map[string]bool{}
	for i := 0; i < len(a); i += 2 {
		if a[i].Circuit != a[i+1].Circuit || a[i].Mode == a[i+1].Mode {
			t.Errorf("configs %d and %d are not a 2D/T-MI pair: %v %v", i, i+1, a[i], a[i+1])
		}
		if a[i].Circuit != matrixCircuits[i/2] {
			t.Errorf("pair %d is %s, want the longest-first order %v", i/2, a[i].Circuit, matrixCircuits)
		}
		seen[a[i].Circuit] = true
	}
	if len(seen) != len(matrixCircuits) {
		t.Errorf("matrix covers %d circuits, want %d", len(seen), len(matrixCircuits))
	}
	if _, err := recordedDigests(0.15); err != nil {
		t.Error(err)
	}
}
