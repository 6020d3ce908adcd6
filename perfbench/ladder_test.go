package main

import (
	"testing"
	"time"
)

func TestLayerDeltas(t *testing.T) {
	steps := [numSteps]float64{10, 11, 13, 14, 16, 20, 25}
	want := [numSteps]float64{10, 1, 2, 1, 2, 4, 5}
	got := layerDeltas(steps)
	if got != want {
		t.Fatalf("layerDeltas = %v, want %v", got, want)
	}
	var sum float64
	for _, d := range got {
		sum += d
	}
	if sum != steps[numSteps-1] {
		t.Fatalf("deltas sum to %v, want the outermost step %v", sum, steps[numSteps-1])
	}
}

// ladderMedians takes each step's median over the passes of one input, then
// averages the inputs, so one slow pass does not move a layer.
func TestLadderMedians(t *testing.T) {
	a, b := &input{}, &input{}
	pass := func(in *input, ms ...int) rung {
		r := rung{in: in}
		for k := range r.steps {
			r.steps[k] = time.Duration(ms[k%len(ms)]) * time.Millisecond
		}
		return r
	}
	rs := []rung{pass(a, 1), pass(a, 100), pass(a, 3), pass(b, 10), pass(b, 20)}
	got := ladderMedians(rs)
	// a: median of {1, 100, 3} = 3; b: median of {10, 20} = 15; mean 9.
	for k, v := range got {
		if v != 9 {
			t.Fatalf("step %d = %v, want 9", k, v)
		}
	}
}
