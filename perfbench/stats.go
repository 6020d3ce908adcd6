package main

import (
	"math"
	"sort"
	"time"
)

// beyondFloor is how many samples must lie beyond a reported percentile.
const beyondFloor = 10

// minSamples is the sample count at which percentile p (0 < p < 1) has at
// least beyondFloor samples beyond it.
func minSamples(p float64) int {
	return int(math.Ceil(beyondFloor/(1-p) - 1e-9))
}

// sample is one timed operation. A failed, refused or wrong answer is kept
// as a sample with ok == false: it missed every latency limit, so it counts
// as infinite latency in the percentiles.
type sample struct {
	lat time.Duration
	ok  bool
}

// latencies returns the samples' latencies in milliseconds, failed samples
// as +Inf.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		if s.ok {
			out[i] = float64(s.lat) / 1e6
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// percentile returns the Harrell–Davis estimate of the p-quantile of xs — a
// Beta-weighted average of all order statistics, far steadier than a single
// order statistic when few samples lie beyond the quantile — and how many
// samples lie after the nearest-rank position in sorted order. With any
// infinite sample (a failed op) it returns the nearest-rank value instead,
// so failures count as infinite latency exactly where they rank. xs is not
// modified.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	rank := max(1, int(math.Ceil(p*float64(n)-1e-9)))
	beyond = n - rank
	if math.IsInf(s[n-1], 1) || n == 1 {
		return s[rank-1], beyond
	}
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	prev := 0.0
	for i, x := range s {
		cur := regIncBeta(a, b, float64(i+1)/float64(n))
		v += (cur - prev) * x
		prev = cur
	}
	return v, beyond
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		aa := fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 3e-14 {
			break
		}
	}
	return h
}

// median is the middle value of xs (the mean of the two middle values for an
// even count); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// countOK returns how many samples succeeded.
func countOK(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok {
			n++
		}
	}
	return n
}

// finite maps the infinities a failed op leaves in a percentile to the
// largest float64, because JSON has no infinity.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}
