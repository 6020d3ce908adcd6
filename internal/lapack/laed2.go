package lapack

import (
	"fmt"
	"math"
	"slices"

	"tridiag/internal/blas"
	"tridiag/internal/pool"
)

// Column types produced by the deflation scan, matching LAPACK DLAED2:
// type 1 columns are nonzero only in their first n1 rows (from the first
// subproblem), type 2 columns are dense (Givens-coupled across the cut),
// type 3 columns are nonzero only in their last n2 rows, and type 4 columns
// are deflated.
const (
	colTop = iota // 1 in LAPACK numbering
	colDense
	colBottom
	colDeflated
)

// Deflation holds the outcome of the deflation scan for one D&C merge: the
// size K of the surviving secular problem, the normalized rank-one weight
// Rho, the secular poles Dlamda and weights W (both ascending), the
// permutation that groups the eigenvector columns into the four type classes,
// and the slot of every deflated vector. It contains no eigenvector data;
// column movement is done separately (and, in the task-flow solver, per
// panel) via PermutePanel and friends.
//
// Deflation by slot: UpdateVect overwrites only the window columns [0, K), so
// a deflated vector whose source column is ≥ K stays where it is — its slot
// is its own column. Only the deflated vectors sitting in [0, K) move, into
// the columns ≥ K that non-deflated vectors vacate; there are at most
// min(K, N−K) of them (Moved/MovedTo). The merged window is therefore not in
// LAPACK's "secular block, then descending deflated tail" layout: MergeOrder
// builds the sorting permutation through the slot map instead.
type Deflation struct {
	N, N1, K       int
	Rho            float64
	Dlamda         []float64 // len K: non-deflated eigenvalues, ascending
	W              []float64 // len K: secular weights (carry the original signs)
	Perm           []int     // len N: grouped position -> source column of Q
	GroupToSecular []int     // len K: grouped position -> secular index
	Ctot           [4]int    // column counts per type
	DeflD          []float64 // len N-K: deflated eigenvalues, descending (ascending when K == 0)
	Moved          []int     // ascending deflated indices j whose source column Perm[K+j] is < K
	MovedTo        []int     // the vacated column ≥ K each Moved vector lands in
}

// C12 returns the number of columns with a nonzero top block (types 1+2).
func (df *Deflation) C12() int { return df.Ctot[colTop] + df.Ctot[colDense] }

// C23 returns the number of columns with a nonzero bottom block (types 2+3).
func (df *Deflation) C23() int { return df.Ctot[colDense] + df.Ctot[colBottom] }

// Dlaed2Deflate performs the deflation phase of a D&C merge (LAPACK DLAED2
// without the eigenvector copies). On entry d[0:n1] and d[n1:n] hold the two
// children's eigenvalues, q is the n×n block-diagonal eigenvector matrix,
// indxq sorts each child's eigenvalues ascending (second half holds indices
// local to the second child), rho is the off-diagonal coupling β, and z is
// the concatenation of the last row of Q1 and the first row of Q2.
//
// Givens rotations between deflatable close pairs are applied to q in place;
// z and d are used as scratch and destroyed.
func Dlaed2Deflate(n, n1 int, d []float64, q []float64, ldq int, indxq []int, rho float64, z []float64) (*Deflation, error) {
	return Dlaed2DeflateRot(n, n1, d, indxq, rho, z, func(pj, nj int, c, s float64) {
		blas.Drot(n, q[pj*ldq:], 1, q[nj*ldq:], 1, c, s)
	})
}

// Dlaed2DeflateRot is Dlaed2Deflate with the eigenvector side effect
// abstracted: instead of rotating columns of an n×n q, each deflating pair
// (pj, nj) is reported to rot with its Givens coefficients. The full solver
// passes an n-length column rotation; the values-only lane rotates a 2-row
// first/last-row carrier instead, and the root merge (whose carrier is never
// consumed) passes nil to skip the work entirely. The scan itself — and the
// resulting d/z trajectory — is identical either way.
func Dlaed2DeflateRot(n, n1 int, d []float64, indxq []int, rho float64, z []float64, rot func(pj, nj int, c, s float64)) (*Deflation, error) {
	if n1 < 1 || n1 >= n {
		return nil, fmt.Errorf("lapack: Dlaed2Deflate: invalid cut %d of %d", n1, n)
	}
	n2 := n - n1
	df := &Deflation{
		N:              n,
		N1:             n1,
		Dlamda:         make([]float64, 0, n),
		W:              make([]float64, 0, n),
		Perm:           make([]int, n),
		GroupToSecular: nil,
	}

	// Normalize z to unit norm. z is the concatenation of two unit-norm
	// rows, so its norm is sqrt(2); a negative rho flips the second half.
	if rho < 0 {
		blas.Dscal(n2, -1, z[n1:], 1)
	}
	t := 1 / math.Sqrt2
	blas.Dscal(n, t, z, 1)
	rho = math.Abs(2 * rho)
	df.Rho = rho

	// Global indices for the second child's sorted order.
	for i := n1; i < n; i++ {
		indxq[i] += n1
	}

	// Merge the two sorted eigenvalue lists.
	dlamda := make([]float64, n) // scratch for the merged sort keys
	for i := 0; i < n; i++ {
		dlamda[i] = d[indxq[i]]
	}
	indxc := make([]int, n)
	Dlamrg(n1, n2, dlamda, 1, 1, indxc)
	indx := make([]int, n) // ascending order of all eigenvalues -> column
	for i := 0; i < n; i++ {
		indx[i] = indxq[indxc[i]]
	}

	// Deflation tolerance.
	imax := blas.Idamax(n, z, 1)
	jmax := blas.Idamax(n, d, 1)
	tol := 8 * Eps * math.Max(math.Abs(d[jmax]), math.Abs(z[imax]))

	coltyp := make([]int, n)
	for i := 0; i < n1; i++ {
		coltyp[i] = colTop
	}
	for i := n1; i < n; i++ {
		coltyp[i] = colBottom
	}

	indxp := make([]int, n) // positions 0..k-1 non-deflated asc; k..n-1 deflated desc
	k := 0
	k2 := n

	if rho*math.Abs(z[imax]) <= tol {
		// Everything deflates: columns are simply sorted ascending.
		df.K = 0
		df.DeflD = make([]float64, n)
		for j := 0; j < n; j++ {
			df.Perm[j] = indx[j]
			df.DeflD[j] = d[indx[j]]
			coltyp[indx[j]] = colDeflated
		}
		df.Ctot[colDeflated] = n
		df.GroupToSecular = []int{}
		return df, nil
	}

	pj := -1
	for j := 0; j < n; j++ {
		nj := indx[j]
		if rho*math.Abs(z[nj]) <= tol {
			// Deflate due to small z component.
			k2--
			coltyp[nj] = colDeflated
			indxp[k2] = nj
			continue
		}
		if pj < 0 {
			pj = nj
			continue
		}
		// Check if the two eigenvalues are close enough to deflate.
		s := z[pj]
		c := z[nj]
		tau := Dlapy2(c, s)
		tdiff := d[nj] - d[pj]
		c /= tau
		s = -s / tau
		if math.Abs(tdiff*c*s) <= tol {
			// Deflation is possible: rotate the pair so z[pj] becomes 0.
			z[nj] = tau
			z[pj] = 0
			if coltyp[nj] != coltyp[pj] {
				coltyp[nj] = colDense
			}
			coltyp[pj] = colDeflated
			if rot != nil {
				rot(pj, nj, c, s)
			}
			t := d[pj]*c*c + d[nj]*s*s
			d[nj] = d[pj]*s*s + d[nj]*c*c
			d[pj] = t
			// Insert pj into the (descending) deflated tail, keeping order.
			k2--
			i := 0
			for {
				if k2+i+1 < n && d[pj] < d[indxp[k2+i+1]] {
					indxp[k2+i] = indxp[k2+i+1]
					i++
				} else {
					indxp[k2+i] = pj
					break
				}
			}
			pj = nj
		} else {
			// Record pj as a non-deflated eigenvalue.
			df.Dlamda = append(df.Dlamda, d[pj])
			df.W = append(df.W, z[pj])
			indxp[k] = pj
			k++
			pj = nj
		}
	}
	// Record the last non-deflated eigenvalue.
	df.Dlamda = append(df.Dlamda, d[pj])
	df.W = append(df.W, z[pj])
	indxp[k] = pj
	k++
	df.K = k

	// Count column types and compute the grouped permutation, which places
	// type-1 columns first, then type-2, type-3 and finally the deflated
	// type-4 columns.
	var ctot [4]int
	for _, js := range indxp[:k] {
		ctot[coltyp[js]]++
	}
	ctot[colDeflated] = n - k
	df.Ctot = ctot

	var psm [4]int
	psm[0] = 0
	psm[1] = ctot[0]
	psm[2] = ctot[0] + ctot[1]
	psm[3] = k
	df.GroupToSecular = make([]int, k)
	for j := 0; j < n; j++ {
		js := indxp[j]
		ct := coltyp[js]
		df.Perm[psm[ct]] = js
		if ct != colDeflated {
			df.GroupToSecular[psm[ct]] = j
		}
		psm[ct]++
	}

	// Deflated eigenvalues in grouped order (descending), and their slots: a
	// deflated vector in [0, K) moves into the next column ≥ K that a
	// non-deflated vector vacates.
	df.DeflD = make([]float64, n-k)
	free := k
	for j := 0; j < n-k; j++ {
		js := df.Perm[k+j]
		df.DeflD[j] = d[js]
		if js < k {
			for coltyp[free] == colDeflated {
				free++
			}
			df.Moved = append(df.Moved, j)
			df.MovedTo = append(df.MovedTo, free)
			free++
		}
	}
	return df, nil
}

// Slot returns the merge-window column that holds deflated vector j (grouped
// position K+j) once the merge is done.
func (df *Deflation) Slot(j int) int {
	if m, ok := slices.BinarySearch(df.Moved, j); ok {
		return df.MovedTo[m]
	}
	return df.Perm[df.K+j]
}

// MergeOrder writes into index (len N) the permutation sorting the merged
// window ascending: index[i] is the column holding the i-th smallest
// eigenvalue, read from d (secular values in d[0:K], deflated ones at their
// slots). It is Dlamrg(K, N−K, d, 1, −1, index) on LAPACK's layout — the
// secular block ascending, the deflated tail descending — mapped through the
// slots, including Dlamrg's tie order (the secular value wins a tie), so the
// sorted eigenpairs are the ones the tail layout would give, bit for bit.
func (df *Deflation) MergeOrder(d []float64, index []int) {
	k, n := df.K, df.N
	if k == 0 {
		// Everything deflated: nothing moves and DeflD is ascending.
		copy(index[:n], df.Perm)
		return
	}
	i1, j, m := 0, n-k-1, len(df.Moved)-1
	for i := 0; i < n; i++ {
		if j < 0 {
			index[i] = i1
			i1++
			continue
		}
		s := df.Perm[k+j]
		moved := m >= 0 && df.Moved[m] == j
		if moved {
			s = df.MovedTo[m]
		}
		if i1 < k && d[i1] <= d[s] {
			index[i] = i1
			i1++
			continue
		}
		index[i] = s
		if moved {
			m--
		}
		j--
	}
}

// MergeWorkspace holds the compressed eigenvector storage for one merge:
// Q2Top packs the first n1 rows of the grouped type-1 and type-2 columns,
// Q2Bot the last n2 rows of the type-2 and type-3 columns, Q2Defl stages the
// full columns of the deflated vectors that move (Deflation.Moved, at most
// min(K, n−K) of them), and S the k×k secular matrix (delta columns, later
// overwritten by the updated eigenvectors, as in LAPACK).
//
// PackTop/PackBot, when non-nil, hold Q2Top/Q2Bot repacked for the blocked
// GEMM (see Deflation.PackV): packed once per merge, shared read-only by
// every UpdateVect panel of that merge.
type MergeWorkspace struct {
	Q2Top   []float64 // n1 × c12
	Q2Bot   []float64 // n2 × c23
	Q2Defl  []float64 // n × len(Moved)
	S       []float64 // k × k
	WLoc    []float64 // k, scratch for Gu's product (sequential path)
	PackTop *blas.PackedA
	PackBot *blas.PackedA
}

// NewMergeWorkspace takes buffers sized for the given deflation outcome
// from the scratch pool; contents are unspecified and every consumer fully
// overwrites what it reads. Call Release when the merge is finished to
// recycle the buffers.
func NewMergeWorkspace(df *Deflation) *MergeWorkspace {
	n1, n2 := df.N1, df.N-df.N1
	k := df.K
	return &MergeWorkspace{
		Q2Top:  pool.Get(n1 * df.C12()),
		Q2Bot:  pool.Get(n2 * df.C23()),
		Q2Defl: pool.Get(df.N * len(df.Moved)),
		S:      pool.Get(max(k*k, 1)),
		WLoc:   pool.Get(k),
	}
}

// Release returns the workspace buffers (and any packed operands) to the
// scratch pool. The workspace must not be used afterwards.
func (ws *MergeWorkspace) Release() {
	if ws.PackTop != nil {
		ws.PackTop.Release()
		ws.PackTop = nil
	}
	if ws.PackBot != nil {
		ws.PackBot.Release()
		ws.PackBot = nil
	}
	pool.Put(ws.Q2Top)
	pool.Put(ws.Q2Bot)
	pool.Put(ws.Q2Defl)
	pool.Put(ws.S)
	pool.Put(ws.WLoc)
	ws.Q2Top, ws.Q2Bot, ws.Q2Defl, ws.S, ws.WLoc = nil, nil, nil, nil, nil
}

// PooledBytes returns the pool-accounted bytes the workspace currently
// holds (buffers plus packed operands). Leak sweeps of failed merges use
// it to size their pool.Forget.
func (ws *MergeWorkspace) PooledBytes() int64 {
	b := pool.AccountedBytes(ws.Q2Top) + pool.AccountedBytes(ws.Q2Bot) +
		pool.AccountedBytes(ws.Q2Defl) + pool.AccountedBytes(ws.S) +
		pool.AccountedBytes(ws.WLoc)
	if ws.PackTop != nil {
		b += ws.PackTop.PooledBytes()
	}
	if ws.PackBot != nil {
		b += ws.PackBot.PooledBytes()
	}
	return b
}

// PermutePanel copies grouped columns [g0, g1) of q into the compressed
// workspace (the paper's PermuteV task) and returns the number of elements
// copied. Of the deflated columns only the moved ones are staged, into
// Q2Defl; the rest stay in place.
func (df *Deflation) PermutePanel(q []float64, ldq int, ws *MergeWorkspace, g0, g1 int) (copied int) {
	n1 := df.N1
	n2 := df.N - n1
	c1 := df.Ctot[colTop]
	c12 := df.C12()
	k := df.K
	for g := g0; g < min(g1, k); g++ {
		src := q[df.Perm[g]*ldq:]
		switch {
		case g < c1:
			copy(ws.Q2Top[g*n1:g*n1+n1], src[:n1])
			copied += n1
		case g < c12:
			copy(ws.Q2Top[g*n1:g*n1+n1], src[:n1])
			copy(ws.Q2Bot[(g-c1)*n2:(g-c1)*n2+n2], src[n1:n1+n2])
			copied += n1 + n2
		default:
			copy(ws.Q2Bot[(g-c1)*n2:(g-c1)*n2+n2], src[n1:n1+n2])
			copied += n2
		}
	}
	n := df.N
	for m := df.movedFrom(max(g0, k) - k); m < len(df.Moved) && df.Moved[m] < g1-k; m++ {
		js := df.Perm[k+df.Moved[m]]
		copy(ws.Q2Defl[m*n:m*n+n], q[js*ldq:js*ldq+n])
		copied += n
	}
	return copied
}

// movedFrom returns the index of the first Moved entry ≥ j.
func (df *Deflation) movedFrom(j int) int {
	m, _ := slices.BinarySearch(df.Moved, j)
	return m
}

// PermutedColumn returns the compressed-workspace destination of the first
// column of grouped range [g0, g1) that PermutePanel writes, or nil when the
// range writes none (all of it deflated in place). Fault-injection hooks use
// it to corrupt exactly the slice one PermuteV panel owns, without racing
// against concurrent panels writing their own columns. For type-2 columns
// (split across Q2Top and Q2Bot) the top half is returned.
func (df *Deflation) PermutedColumn(ws *MergeWorkspace, g0, g1 int) []float64 {
	n1 := df.N1
	n2 := df.N - n1
	c1 := df.Ctot[colTop]
	switch {
	case g0 < df.C12():
		return ws.Q2Top[g0*n1 : g0*n1+n1]
	case g0 < df.K:
		return ws.Q2Bot[(g0-c1)*n2 : (g0-c1)*n2+n2]
	}
	if m := df.movedFrom(g0 - df.K); m < len(df.Moved) && df.Moved[m] < g1-df.K {
		return ws.Q2Defl[m*df.N : m*df.N+df.N]
	}
	return nil
}

// CopyBackPanel finishes deflated vectors [j0, j1) (relative to the deflated
// group; the paper's CopyBackDeflated task): the moved ones are copied from
// Q2Defl into their slots, and every eigenvalue is written to d at its slot.
// It returns the number of eigenvector elements copied.
func (df *Deflation) CopyBackPanel(q []float64, ldq int, d []float64, ws *MergeWorkspace, j0, j1 int) (copied int) {
	n := df.N
	m := df.movedFrom(j0)
	for j := j0; j < j1; j++ {
		s := df.Perm[df.K+j]
		if m < len(df.Moved) && df.Moved[m] == j {
			s = df.MovedTo[m]
			copy(q[s*ldq:s*ldq+n], ws.Q2Defl[m*n:m*n+n])
			copied += n
			m++
		}
		d[s] = df.DeflD[j]
	}
	return copied
}
