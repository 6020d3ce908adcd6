package main

import (
	"fmt"
	"hash/maphash"
	"math"
	"sync"
	"unsafe"

	"tridiag/eigen"
	"tridiag/internal/blas"
)

// The accuracy bars of the paper's Fig. 9, which the served results must
// meet.
const (
	maxResidual      = 1e-12
	maxOrthogonality = 1e-12
)

// exactOrthoMaxN is the largest order whose orthogonality sample runs the
// full eigen.Orthogonality (O(n³): 4 s at n=2000, 47 s at n=4000 on a
// 2-vCPU host). Larger results are checked on orthoColumns sampled columns
// against every column, the same metric restricted to those pairs.
const (
	exactOrthoMaxN = 512
	orthoColumns   = 32
)

// checkValues compares computed eigenvalues with the Dsterf reference.
func checkValues(in *input, vals []float64) error {
	if len(vals) != in.n() {
		return fmt.Errorf("%s n=%d: %d eigenvalues", typeName(in.typ), in.n(), len(vals))
	}
	for i, v := range vals {
		if d := math.Abs(v - in.ref[i]); !(d <= in.tol) {
			return fmt.Errorf("%s n=%d: eigenvalue %d = %.17g, reference %.17g (|diff| %.3g > tol %.3g)",
				typeName(in.typ), in.n(), i, v, in.ref[i], d, in.tol)
		}
	}
	return nil
}

// checker verifies eigendecompositions against their inputs. A result
// bitwise identical to one that already passed eigen.Residual is accepted on
// its digest, which costs a memory scan instead of the residual's O(n²)
// arithmetic; any other result runs the residual in full.
type checker struct {
	seed     maphash.Seed
	mu       sync.Mutex
	verified map[*input]uint64
}

func newChecker() *checker {
	return &checker{seed: maphash.MakeSeed(), verified: make(map[*input]uint64)}
}

func floatBytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

func (c *checker) digest(vals, vecs []float64) uint64 {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.Write(floatBytes(vals))
	h.Write(floatBytes(vecs))
	return h.Sum64()
}

// check verifies a full result: eigenvalues against the reference and the
// residual against the Fig. 9 bar.
func (c *checker) check(in *input, vals, vecs []float64) error {
	if err := checkValues(in, vals); err != nil {
		return err
	}
	n := in.n()
	if len(vecs) != n*n {
		return fmt.Errorf("%s n=%d: %d vector entries, want %d", typeName(in.typ), n, len(vecs), n*n)
	}
	h := c.digest(vals, vecs)
	c.mu.Lock()
	known, ok := c.verified[in]
	c.mu.Unlock()
	if ok && known == h {
		return nil
	}
	if r := eigen.Residual(in.tri, &eigen.Result{N: n, Values: vals, Vectors: vecs}); !(r <= maxResidual) {
		return fmt.Errorf("%s n=%d: residual %.3g > %.0e", typeName(in.typ), n, r, maxResidual)
	}
	if !ok {
		c.mu.Lock()
		c.verified[in] = h
		c.mu.Unlock()
	}
	return nil
}

// checkOrthogonality is the sampled orthogonality check.
func checkOrthogonality(in *input, vals, vecs []float64) error {
	n := in.n()
	r := &eigen.Result{N: n, Values: vals, Vectors: vecs}
	var orth float64
	if n <= exactOrthoMaxN {
		orth = eigen.Orthogonality(r)
	} else {
		orth = sampledOrthogonality(r, orthoColumns)
	}
	if !(orth <= maxOrthogonality) {
		return fmt.Errorf("%s n=%d: orthogonality %.3g > %.0e", typeName(in.typ), n, orth, maxOrthogonality)
	}
	return nil
}

// sampledOrthogonality is eigen.Orthogonality's ‖I - VᵀV‖_max / n over the
// pairs (i, j) with j among cols evenly spaced columns.
func sampledOrthogonality(r *eigen.Result, cols int) float64 {
	n := r.N
	worst := 0.0
	for c := 0; c < cols && c < n; c++ {
		j := c * n / min(cols, n)
		vj := r.Vector(j)
		for i := 0; i < n; i++ {
			s := blas.Ddot(n, r.Vector(i), 1, vj, 1)
			if i == j {
				s--
			}
			worst = math.Max(worst, math.Abs(s))
		}
	}
	return worst / float64(max(n, 1))
}
