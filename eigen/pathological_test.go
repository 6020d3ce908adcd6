package eigen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tridiag/internal/blas"
	"tridiag/internal/testmat"
)

// wilkinson builds the Wilkinson W⁺ matrix of odd order n: diagonal
// |i-(n-1)/2|, unit couplings — eigenvalues pair up in notoriously tight
// clusters.
func wilkinson(n int) Tridiagonal {
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = math.Abs(float64(i) - float64(n-1)/2)
	}
	for i := range e {
		e[i] = 1
	}
	return Tridiagonal{D: d, E: e}
}

// gluedWilkinson couples k Wilkinson blocks with tiny off-diagonals,
// producing clusters of k nearly identical eigenvalues.
func gluedWilkinson(k, blockN int, glue float64) Tridiagonal {
	n := k * blockN
	d := make([]float64, n)
	e := make([]float64, n-1)
	w := wilkinson(blockN)
	for b := 0; b < k; b++ {
		copy(d[b*blockN:], w.D)
		copy(e[b*blockN:], w.E)
		if b > 0 {
			e[b*blockN-1] = glue
		}
	}
	return Tridiagonal{D: d, E: e}
}

func scaled(t Tridiagonal, s float64) Tridiagonal {
	d := make([]float64, len(t.D))
	e := make([]float64, len(t.E))
	for i, v := range t.D {
		d[i] = v * s
	}
	for i, v := range t.E {
		e[i] = v * s
	}
	return Tridiagonal{D: d, E: e}
}

// TestPathologicalMatrices runs every Method over the classic hard cases and
// asserts the paper's Figure 9 accuracy order (both metrics are normalized
// by n and the matrix norm).
func TestPathologicalMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	w21, err := testmat.Type(11, 21, rng)
	if err != nil {
		t.Fatal(err)
	}
	base := randomTridiag(rng, 60)
	zeroOff := randomTridiag(rng, 50)
	for i := range zeroOff.E {
		zeroOff.E[i] = 0
	}
	allEqual := randomTridiag(rng, 60)
	for i := range allEqual.D {
		allEqual.D[i] = 3.5
	}
	cases := []struct {
		name string
		tri  Tridiagonal
	}{
		{"wilkinson-w21", Tridiagonal{D: w21.D, E: w21.E}},
		{"wilkinson-w61", wilkinson(61)},
		{"glued-wilkinson", gluedWilkinson(4, 21, 1e-6)},
		{"zero-offdiagonals", zeroOff},
		{"all-zero", Tridiagonal{D: make([]float64, 40), E: make([]float64, 39)}},
		{"near-overflow", scaled(base, 1e300)},
		{"near-underflow", scaled(base, 1e-300)},
		{"all-equal-diagonals", allEqual},
	}
	methods := []Method{MethodDC, MethodDCSequential, MethodMRRR, MethodQR}
	for _, tc := range cases {
		for _, m := range methods {
			res, err := Solve(tc.tri, &Options{Method: m, Workers: 3})
			if err != nil {
				t.Errorf("%s/%v: %v", tc.name, m, err)
				continue
			}
			if r := Residual(tc.tri, res); r > 1e-13 {
				t.Errorf("%s/%v: residual %.3e", tc.name, m, r)
			}
			if o := Orthogonality(res); o > 1e-13 {
				t.Errorf("%s/%v: orthogonality %.3e", tc.name, m, o)
			}
			for i := 1; i < res.N; i++ {
				if res.Values[i-1] > res.Values[i] {
					t.Errorf("%s/%v: eigenvalues not ascending at %d", tc.name, m, i)
					break
				}
			}
		}
	}
}

// pathologicalCase is one named input of the pathological suite.
type pathologicalCase struct {
	name string
	tri  Tridiagonal
}

// pathologicalSuite builds the classic hard cases the audit and the ABFT
// checksum bound are calibrated against: Wilkinson and glued-Wilkinson
// clusters, 1e±300 scalings, a tight cluster and a split matrix.
func pathologicalSuite(rng *rand.Rand) []pathologicalCase {
	base := randomTridiag(rng, 60)
	clustered := randomTridiag(rng, 64)
	for i := range clustered.D {
		clustered.D[i] = 1
	}
	for i := range clustered.E {
		clustered.E[i] = 1e-13 * float64(i%5+1)
	}
	return []pathologicalCase{
		{"wilkinson-w61", wilkinson(61)},
		{"glued-wilkinson", gluedWilkinson(4, 21, 1e-6)},
		{"glued-tight", gluedWilkinson(3, 21, 1e-12)},
		{"near-overflow", scaled(base, 1e300)},
		{"near-underflow", scaled(base, 1e-300)},
		{"clustered-spectrum", clustered},
		{"zero-offdiagonals", Tridiagonal{D: base.D, E: make([]float64, len(base.E))}},
	}
}

// TestAuditPathologicalNoFalsePositives holds the always-on result audit to
// its contract on the classic hard cases: across every method, worker count
// and both request classes, the audit must pass every clean solve — a false
// positive would send healthy solves through pointless (and slower) degraded
// recomputes in production. Wilkinson and glued-Wilkinson stress the
// sampled-inertia check with pathologically tight eigenvalue clusters, the
// 1e±300 scalings stress it at the edge of the exponent range (the audit
// runs against the pre-scaled problem, so its Sturm pivots must not
// over/underflow), and the tight-cluster case puts every sampled count on
// the edge of a cluster boundary.
func TestAuditPathologicalNoFalsePositives(t *testing.T) {
	cases := pathologicalSuite(rand.New(rand.NewSource(79)))
	methods := []Method{MethodDC, MethodDCSequential, MethodMRRR, MethodQR}
	check := func(label string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: clean solve failed: %v", label, err)
			return
		}
		if !res.Stats.Audited {
			t.Errorf("%s: served result was never audited", label)
		}
		if res.Stats.CorruptionsDetected != 0 {
			t.Errorf("%s: audit false positive: %d corruptions detected on a clean solve", label, res.Stats.CorruptionsDetected)
		}
		for _, terr := range res.Stats.TierErrors {
			if IsCorruption(terr) {
				t.Errorf("%s: audit false positive forced a tier retry: %v", label, terr)
			}
		}
	}
	for _, tc := range cases {
		for _, m := range methods {
			for _, w := range []int{1, 4, 8} {
				res, err := Solve(tc.tri, &Options{Method: m, Workers: w})
				check(fmt.Sprintf("%s/%v/w%d", tc.name, m, w), res, err)
			}
		}
		for _, w := range []int{1, 4, 8} {
			res, err := Solve(tc.tri, &Options{Workers: w, ValuesOnly: true})
			check(fmt.Sprintf("%s/values-only/w%d", tc.name, w), res, err)
		}
	}
}

// TestPathologicalEveryGemmKernel runs the pathological suite through the
// default task-flow solve under each GEMM micro-kernel the host supports
// (avx512, avx2, generic): the ABFT checksum verification of the packed
// UpdateVect GEMMs must raise no false positive on any of them, and the
// Figure 9 residual and orthogonality bars must hold on every kernel path.
// The generic kernel keeps every GEMM on the unpacked path, so its subtest
// covers the unchecked fallback.
func TestPathologicalEveryGemmKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	cases := pathologicalSuite(rng)
	// Larger members whose merges clear every kernel's packed-path
	// threshold, so the checksummed GEMMs run on the kernel under test.
	big := randomTridiag(rng, 300)
	cases = append(cases,
		pathologicalCase{"wilkinson-w301", wilkinson(301)},
		pathologicalCase{"glued-wilkinson-12", gluedWilkinson(12, 21, 1e-6)},
		pathologicalCase{"glued-tight-10", gluedWilkinson(10, 21, 1e-12)},
		pathologicalCase{"near-overflow-300", scaled(big, 1e300)},
		pathologicalCase{"near-underflow-300", scaled(big, 1e-300)},
	)
	for _, kernel := range []string{"avx512", "avx2", "generic"} {
		t.Run(kernel, func(t *testing.T) {
			restore, ok := blas.ForceKernel(kernel)
			if !ok {
				t.Skipf("host CPU cannot run the %s micro-kernel", kernel)
			}
			defer restore()
			for _, tc := range cases {
				res, err := Solve(tc.tri, &Options{Workers: 4})
				if err != nil {
					t.Errorf("%s: %v", tc.name, err)
					continue
				}
				if res.Stats.Tier != "task-flow" || res.Stats.CorruptionsDetected != 0 {
					t.Errorf("%s: served by tier %q with %d corruptions detected on a clean solve (tier errors %v)",
						tc.name, res.Stats.Tier, res.Stats.CorruptionsDetected, res.Stats.TierErrors)
				}
				if r := Residual(tc.tri, res); r > 1e-13 {
					t.Errorf("%s: residual %.3e", tc.name, r)
				}
				if o := Orthogonality(res); o > 1e-13 {
					t.Errorf("%s: orthogonality %.3e", tc.name, o)
				}
			}
		})
	}
}

// TestPathologicalScalingRoundTrip: the pre-scaling of extreme-norm inputs
// must scale the eigenvalues back — compare against the unscaled spectrum.
func TestPathologicalScalingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	base := randomTridiag(rng, 50)
	ref, err := Solve(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{1e300, 1e-300} {
		res, err := Solve(scaled(base, s), nil)
		if err != nil {
			t.Fatalf("scale %g: %v", s, err)
		}
		for i := range ref.Values {
			want := ref.Values[i] * s
			if math.Abs(res.Values[i]-want) > 1e-12*math.Abs(want)+1e-15*s {
				t.Errorf("scale %g: eigenvalue %d: %g, want %g", s, i, res.Values[i], want)
			}
		}
	}
}

// TestScreeningRejectsNaNInf: non-finite inputs are rejected up front with
// the offending index, wrapped with the solve's n and method.
func TestScreeningRejectsNaNInf(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(tri *Tridiagonal)
		wantSub string
	}{
		{"nan-diagonal", func(tri *Tridiagonal) { tri.D[3] = math.NaN() }, "D[3]"},
		{"inf-diagonal", func(tri *Tridiagonal) { tri.D[0] = math.Inf(1) }, "D[0]"},
		{"nan-offdiagonal", func(tri *Tridiagonal) { tri.E[7] = math.NaN() }, "E[7]"},
		{"inf-offdiagonal", func(tri *Tridiagonal) { tri.E[2] = math.Inf(-1) }, "E[2]"},
	} {
		tri := randomTridiag(rand.New(rand.NewSource(9)), 20)
		tc.mutate(&tri)
		res, err := Solve(tri, nil)
		if err == nil {
			t.Errorf("%s: solve accepted a non-finite input", tc.name)
			continue
		}
		if res != nil {
			t.Errorf("%s: non-nil result alongside error", tc.name)
		}
		for _, sub := range []string{tc.wantSub, "invalid input", "n=20", "method="} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q missing %q", tc.name, err, sub)
			}
		}
		if _, err := Values(tri); err == nil {
			t.Errorf("%s: Values accepted a non-finite input", tc.name)
		}
	}
}
