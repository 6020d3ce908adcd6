package lapack

import (
	"fmt"
	"math"

	"tridiag/internal/blas"
	"tridiag/internal/pool"
)

// Dlaed1 performs one merge step of the divide & conquer algorithm
// (LAPACK DLAED1, tridiagonal eigenvector case): the two solved subproblems
// d[0:cutpnt]/d[cutpnt:n] with block-diagonal eigenvectors in q are combined
// through the rank-one modification with weight rho.
//
// On exit d[0:k] holds the secular eigenvalues, the deflated ones sit at
// their slots (Deflation.Slot), q holds the corresponding eigenvectors, and
// indxq the permutation sorting d ascending. gemm may be nil (serial) or a
// parallel substitute.
func Dlaed1(n, cutpnt int, d []float64, q []float64, ldq int, indxq []int, rho float64, gemm GemmFunc) error {
	if cutpnt < 1 || cutpnt >= n {
		return fmt.Errorf("lapack: Dlaed1: invalid cutpnt %d of %d", cutpnt, n)
	}
	// Form the z vector: last row of Q1, first row of Q2.
	z := pool.Get(n)
	defer pool.Put(z)
	blas.Dcopy(cutpnt, q[cutpnt-1:], ldq, z, 1)
	blas.Dcopy(n-cutpnt, q[cutpnt+cutpnt*ldq:], ldq, z[cutpnt:], 1)

	df, err := Dlaed2Deflate(n, cutpnt, d, q, ldq, indxq, rho, z)
	if err != nil {
		return err
	}
	ws := NewMergeWorkspace(df)
	defer ws.Release()
	df.PermutePanel(q, ldq, ws, 0, n)
	df.CopyBackPanel(q, ldq, d, ws, 0, n-df.K)

	if df.K > 0 {
		if _, err := df.SecularPanel(ws, d, 0, df.K); err != nil {
			return err
		}
		for i := range ws.WLoc {
			ws.WLoc[i] = 1
		}
		df.LocalWPanel(ws, ws.WLoc, 0, df.K)
		what := pool.Get(df.K)
		defer pool.Put(what)
		df.FinishW(what, ws.WLoc)
		df.VectorsPanel(ws, what, 0, df.K)
		df.UpdatePanel(q, ldq, ws, 0, df.K, gemm)
	}
	df.MergeOrder(d, indxq)
	return nil
}

// DCConfig tunes the divide & conquer drivers.
type DCConfig struct {
	// SmallSize is the leaf cutoff (the paper's "minimal partition size"):
	// subproblems of at most this size are solved directly by Dsteqr.
	SmallSize int
	// Gemm substitutes the matrix-product kernel of the merge update; nil
	// means the serial blas.Dgemm. Vendor-library behaviour (fork/join
	// multithreaded BLAS under a sequential algorithm) is modelled by
	// passing a parallel GEMM here.
	Gemm GemmFunc
}

func (c *DCConfig) smallSize() int {
	if c == nil || c.SmallSize < 2 {
		return 25
	}
	return c.SmallSize
}

func (c *DCConfig) gemm() GemmFunc {
	if c == nil {
		return nil
	}
	return c.Gemm
}

// Dstedc computes all eigenvalues and eigenvectors of a symmetric
// tridiagonal matrix using the divide & conquer method (LAPACK
// DSTEDC/DLAED0, sequential task order). On exit d holds the ascending
// eigenvalues, q (n×n) the eigenvectors; e is destroyed. The entry
// contents of q are ignored: callers may reuse a dirty workspace.
func Dstedc(n int, d, e []float64, q []float64, ldq int, cfg *DCConfig) error {
	if n < 0 {
		return fmt.Errorf("lapack: Dstedc: negative n")
	}
	if n == 0 {
		return nil
	}
	if ldq < n {
		return fmt.Errorf("lapack: Dstedc: ldq=%d < n=%d", ldq, n)
	}
	smlsiz := cfg.smallSize()
	if n <= smlsiz {
		return Dsteqr(CompIdentity, n, d, e, q, ldq)
	}

	// Scale the matrix to unit max-norm.
	orgnrm := Dlanst('M', n, d, e)
	if orgnrm == 0 {
		// Zero matrix: eigenvalues are zero, eigenvectors the identity.
		for j := 0; j < n; j++ {
			col := q[j*ldq : j*ldq+n]
			for i := range col {
				col[i] = 0
			}
			col[j] = 1
		}
		return nil
	}
	Dlascl(n, 1, orgnrm, 1, d, n)
	Dlascl(n-1, 1, orgnrm, 1, e, n-1)
	defer Dlascl(n, 1, 1, orgnrm, d, n)

	sizes := PartitionSizes(n, smlsiz)
	// Subtract the rank-one coupling at each internal boundary.
	starts := make([]int, len(sizes)+1)
	for i, s := range sizes {
		starts[i+1] = starts[i] + s
	}
	for _, b := range starts[1 : len(starts)-1] {
		ae := math.Abs(e[b-1])
		d[b-1] -= ae
		d[b] -= ae
	}

	// Solve the leaf subproblems; a QR non-convergence on a leaf retries
	// via Dsterf + inverse iteration instead of failing the whole solve.
	// Each leaf also zeroes the off-block rows of its columns: the merge
	// kernels rotate and copy full merge-window columns and rely on the
	// structurally-zero region holding exact zeros (LAPACK's Z=I invariant),
	// so q's entry contents must not survive into the merges.
	indxq := make([]int, n)
	for i, st := range starts[:len(starts)-1] {
		sz := sizes[i]
		for j := st; j < st+sz; j++ {
			col := q[j*ldq : j*ldq+n]
			for r := range col[:st] {
				col[r] = 0
			}
			for r := st + sz; r < n; r++ {
				col[r] = 0
			}
		}
		if _, err := DsteqrRobust(sz, d[st:st+sz], e[st:st+max(sz-1, 0)], q[st+st*ldq:], ldq); err != nil {
			return fmt.Errorf("leaf [%d,%d): %w", st, st+sz, err)
		}
		for j := 0; j < sz; j++ {
			indxq[st+j] = j
		}
	}

	// Merge pairwise, bottom-up.
	for len(sizes) > 1 {
		var nsizes []int
		var nstarts []int
		for i := 0; i+1 < len(sizes); i += 2 {
			st := starts[i]
			cut := sizes[i]
			msz := sizes[i] + sizes[i+1]
			rho := e[st+cut-1]
			if err := Dlaed1(msz, cut, d[st:st+msz], q[st+st*ldq:], ldq, indxq[st:st+msz], rho, cfg.gemm()); err != nil {
				return fmt.Errorf("merge [%d,%d): %w", st, st+msz, err)
			}
			nsizes = append(nsizes, msz)
			nstarts = append(nstarts, st)
		}
		if len(sizes)%2 == 1 {
			nsizes = append(nsizes, sizes[len(sizes)-1])
			nstarts = append(nstarts, starts[len(sizes)-1])
		}
		sizes = nsizes
		starts = append(nstarts, n)
	}

	// Final sort into ascending order (the paper's SortEigenvectors task).
	SortEigen(n, d, q, ldq, indxq)
	return nil
}

// PartitionSizes splits n into the leaf sizes of the D&C tree by repeated
// halving until every piece is at most smlsiz (LAPACK DLAED0 partitioning:
// all leaves end up within a factor of two of each other).
func PartitionSizes(n, smlsiz int) []int {
	sizes := []int{n}
	for sizes[len(sizes)-1] > smlsiz {
		next := make([]int, 0, 2*len(sizes))
		for _, s := range sizes {
			next = append(next, s/2, (s+1)/2)
		}
		sizes = next
		// All entries halve together (LAPACK semantics): loop condition
		// checks the largest, which is the last (ceil halves go second).
	}
	return sizes
}

// SortEigen permutes d and the columns of q into ascending eigenvalue order
// given indxq, the merge's sorting permutation (new position i receives old
// position indxq[i]). The permutation is applied in place by following its
// cycles with a single n-element column buffer — O(n) scratch instead of the
// former n×n shadow copy, which dominated peak memory for large matrices.
// indxq is consumed: it holds the identity permutation on return.
func SortEigen(n int, d []float64, q []float64, ldq int, indxq []int) {
	p := NewSortPlan(n, d, indxq)
	buf := pool.Get(n)
	p.Apply(q, ldq, 0, n, buf)
	pool.Put(buf)
}

// SortPlan is the cycle decomposition of a sorting permutation, so the
// column permutation can be applied to disjoint row strips of q
// independently (the task flow's parallel SortEigenvectors).
type SortPlan struct {
	cycles []int // concatenated cycles c0, c1, …, cm: column ci receives c(i+1), cm receives c0
	ends   []int // end offset of each cycle in cycles
}

// NewSortPlan decomposes indxq (new position i receives old position
// indxq[i]) into cycles and applies the permutation to d. indxq is consumed:
// it holds the identity permutation on return. The plan takes O(n) memory.
func NewSortPlan(n int, d []float64, indxq []int) *SortPlan {
	p := &SortPlan{cycles: make([]int, 0, n)}
	for start := 0; start < n; start++ {
		j := indxq[start]
		if j == start {
			continue
		}
		// Shift each member one step back along the cycle; indxq[i] = i
		// marks position i as finalized so the outer scan skips the rest of
		// this cycle.
		dsave := d[start]
		i := start
		p.cycles = append(p.cycles, i)
		for j != start {
			d[i] = d[j]
			p.cycles = append(p.cycles, j)
			indxq[i] = i
			i = j
			j = indxq[j]
		}
		d[i] = dsave
		indxq[i] = i
		p.ends = append(p.ends, len(p.cycles))
	}
	return p
}

// Moved returns the number of columns the plan moves.
func (p *SortPlan) Moved() int { return len(p.cycles) }

// Apply permutes rows [r0, r1) of the columns of q along the plan's cycles.
// buf is scratch of at least r1-r0 elements. Calls on disjoint row ranges
// may run concurrently.
func (p *SortPlan) Apply(q []float64, ldq, r0, r1 int, buf []float64) {
	buf = buf[:r1-r0]
	b := 0
	for _, e := range p.ends {
		cyc := p.cycles[b:e]
		b = e
		copy(buf, q[cyc[0]*ldq+r0:cyc[0]*ldq+r1])
		for i, src := range cyc[1:] {
			dst := cyc[i]
			copy(q[dst*ldq+r0:dst*ldq+r1], q[src*ldq+r0:src*ldq+r1])
		}
		last := cyc[len(cyc)-1]
		copy(q[last*ldq+r0:last*ldq+r1], buf)
	}
}
