package main

import (
	"math"
	"testing"
	"time"
)

func TestMinSamples(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := minSamples(c.p); got != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.p, got, c.want)
		}
		xs := make([]float64, c.want)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, beyond := percentile(xs, c.p); beyond < beyondFloor {
			t.Errorf("p%v of %d samples has %d beyond, want >= %d", c.p, c.want, beyond, beyondFloor)
		}
		if _, beyond := percentile(xs[:c.want-1], c.p); beyond >= beyondFloor {
			t.Errorf("p%v of %d samples has %d beyond; minSamples is not minimal", c.p, c.want-1, beyond)
		}
	}
}

func TestPercentileHarrellDavis(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	// Symmetric sample: the estimated median is the middle, 5.5.
	if v, beyond := percentile(xs, 0.5); math.Abs(v-5.5) > 1e-9 || beyond != 5 {
		t.Errorf("p50 = %v (%d beyond), want 5.5 (5 beyond)", v, beyond)
	}
	v90, beyond := percentile(xs, 0.9)
	if v90 <= 8 || v90 >= 10 || beyond != 1 {
		t.Errorf("p90 = %v (%d beyond), want between 8 and 10 (1 beyond)", v90, beyond)
	}
	if v99, _ := percentile(xs, 0.99); v99 <= v90 || v99 > 10 {
		t.Errorf("p99 = %v, want above p90 %v and at most the max", v99, v90)
	}
	if xs[0] != 5 {
		t.Fatal("percentile reordered its input")
	}
	// The estimate follows a shifted sample exactly.
	for i := range xs {
		xs[i] += 100
	}
	if v, _ := percentile(xs, 0.9); math.Abs(v-v90-100) > 1e-9 {
		t.Errorf("p90 of shifted sample = %v, want %v", v, v90+100)
	}
}

func TestRegIncBeta(t *testing.T) {
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},            // uniform
		{2, 1, 0.5, 0.25},           // x²
		{1, 2, 0.5, 0.75},           // 1-(1-x)²
		{500.5, 500.5, 0.5, 0.5},    // symmetric
		{99.99, 1.01, 1, 1},         // endpoint
		{3, 4, 0.2, 0.098880000000}, // tabulated
	} {
		if got := regIncBeta(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("I_%v(%v,%v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestFailedOpsAreInfiniteLatency(t *testing.T) {
	var ss []sample
	for i := 0; i < 100; i++ {
		ss = append(ss, sample{lat: time.Duration(i+1) * time.Millisecond, ok: true})
	}
	// Ten failures push the p90 past every successful latency.
	for i := 0; i < 10; i++ {
		ss[i*10].ok = false
	}
	lat := latencies(ss)
	p50, _ := percentile(lat, 0.5)
	if math.IsInf(p50, 1) {
		t.Fatalf("p50 = Inf with 10%% failures")
	}
	p90, _ := percentile(lat, 0.91)
	if !math.IsInf(p90, 1) {
		t.Fatalf("p91 = %v, want +Inf when the slowest 10%% are failures", p90)
	}
	if got := countOK(ss); got != 90 {
		t.Fatalf("countOK = %d, want 90", got)
	}
	// One failure is infinite latency: it is the one sample beyond the p99.
	ss[0].ok = true
	for i := 1; i < 10; i++ {
		ss[i*10].ok = true
	}
	ss[50].ok = false
	lat = latencies(ss)
	if p, _ := percentile(lat, 0.995); !math.IsInf(p, 1) {
		t.Fatalf("p99.5 = %v with one failure in 100, want +Inf", p)
	}
	if p, beyond := percentile(lat, 0.99); p != 100 || beyond != 1 {
		t.Fatalf("p99 = %v (%d beyond) with one failure in 100, want the slowest success, 100 (1 beyond)", p, beyond)
	}
	if finite(p90) != math.MaxFloat64 {
		t.Fatalf("finite(+Inf) = %v", finite(p90))
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
