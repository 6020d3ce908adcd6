package core

import (
	"math"
	"math/rand"
	"testing"

	"tridiag/internal/blas"
	"tridiag/internal/lapack"
	"tridiag/internal/testmat"
)

// checkFig9 asserts one eigendecomposition against the Dsterf spectrum and
// the paper's Fig. 9 accuracy bars: residual max‖Tv−λv‖/(‖T‖n) and
// orthogonality max|I−VᵀV|/n, both ≤ 1e-12. Orthogonality is measured for
// 64 evenly spaced columns against every column (the O(n³) full product is
// too slow for n ≥ 1000 in a unit test).
func checkFig9(t *testing.T, label string, m testmat.Matrix, ref, d, q []float64) {
	t.Helper()
	n := m.N()
	nrm := lapack.Dlanst('M', n, m.D, m.E)
	for i := range d {
		if math.Abs(d[i]-ref[i]) > 1e-12*nrm*float64(n) {
			t.Fatalf("%s: eigenvalue %d = %v, Dsterf %v", label, i, d[i], ref[i])
		}
	}
	y := make([]float64, n)
	var res, orth float64
	for j := 0; j < n; j++ {
		v := q[j*n : j*n+n]
		for i := range y {
			s := m.D[i] * v[i]
			if i > 0 {
				s += m.E[i-1] * v[i-1]
			}
			if i < n-1 {
				s += m.E[i] * v[i+1]
			}
			y[i] = s - d[j]*v[i]
		}
		res = math.Max(res, blas.Dnrm2(n, y, 1))
	}
	for c := 0; c < 64; c++ {
		j := c * (n - 1) / 63
		for i := 0; i < n; i++ {
			s := blas.Ddot(n, q[i*n:], 1, q[j*n:], 1)
			if i == j {
				s--
			}
			orth = math.Max(orth, math.Abs(s))
		}
	}
	if res/(nrm*float64(n)) > 1e-12 || orth/float64(n) > 1e-12 {
		t.Errorf("%s: residual %.2e orthogonality %.2e, Fig. 9 bar 1e-12", label, res/(nrm*float64(n)), orth/float64(n))
	}
}

// TestFullDeflationMovesNoColumns solves a fully deflating Table III type-2
// matrix in every execution mode and through SolveDCBatch, reusing one dirty
// eigenvector workspace: every merge keeps its deflated vectors in place, so
// the PermuteV and CopyBackDeflated tasks must copy no element at all, and the
// only column permutation of the solve is the final SortEigenvectors (split
// into row strips at this order).
func TestFullDeflationMovesNoColumns(t *testing.T) {
	const n = 1200
	if sortStrips(n, 2) < 2 {
		t.Fatalf("n=%d sorts in one strip; the test must cover the row-strip path", n)
	}
	m, err := testmat.Type(2, n, rand.New(rand.NewSource(1206)))
	if err != nil {
		t.Fatal(err)
	}
	ref := append([]float64(nil), m.D...)
	if err := lapack.Dsterf(n, ref, append([]float64(nil), m.E...)); err != nil {
		t.Fatal(err)
	}
	q := make([]float64, n*n)
	for i := range q {
		q[i] = math.NaN() // a dirty workspace, reused by every solve below
	}
	checkStats := func(label string, st *Stats) {
		t.Helper()
		if st.DeflationRatio() != 1 {
			t.Fatalf("%s: deflation ratio %v, want a fully deflating input", label, st.DeflationRatio())
		}
		for _, c := range []string{"PermuteV", "CopyBackDeflated"} {
			if st.Ops[c] != 0 {
				t.Errorf("%s: %s copied %d elements, want 0", label, c, st.Ops[c])
			}
		}
		if st.Ops["SortEigenvectors"] == 0 {
			t.Errorf("%s: SortEigenvectors moved nothing; the deflated vectors were sorted elsewhere", label)
		}
	}
	for _, mode := range []Mode{ModeTaskFlow, ModeLevelSync, ModeScaLAPACK, ModeForkJoin, ModeSequential} {
		d := append([]float64(nil), m.D...)
		e := append([]float64(nil), m.E...)
		res, err := SolveDC(n, d, e, q, n, &Options{Mode: mode, Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		checkFig9(t, mode.String(), m, ref, d, q)
		if len(res.Stats.Merges) > 0 { // the task-flow modes
			checkStats(mode.String(), res.Stats)
		}
	}

	probs := make([]BatchProblem, 2)
	for i := range probs {
		probs[i] = BatchProblem{N: n, D: append([]float64(nil), m.D...), E: append([]float64(nil), m.E...), Q: q, LDQ: n}
		if i > 0 {
			probs[i].Q = make([]float64, n*n)
			copy(probs[i].Q, q) // dirty: the previous solve's eigenvectors
		}
	}
	br, err := SolveDCBatch(probs, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range br.Items {
		if it.Err != nil {
			t.Fatalf("batch %d: %v", i, it.Err)
		}
		checkFig9(t, "batch", m, ref, probs[i].D, probs[i].Q)
		checkStats("batch", it.Result.Stats)
	}
}
