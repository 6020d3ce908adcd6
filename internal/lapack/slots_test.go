package lapack

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// deflateShuffled tears (d0, e0) at cut, solves both halves, shuffles each
// half's eigenpairs across its columns (the layout an earlier slot-keeping
// merge leaves behind: the children are no longer sorted by column) and runs
// the deflation scan. It returns the scan outcome with the window's d and q.
func deflateShuffled(t *testing.T, rng *rand.Rand, d0, e0 []float64, cut int) (*Deflation, []float64, []float64) {
	t.Helper()
	n := len(d0)
	d := append([]float64(nil), d0...)
	e := append([]float64(nil), e0...)
	rho := e[cut-1]
	d[cut-1] -= math.Abs(rho)
	d[cut] -= math.Abs(rho)
	q := make([]float64, n*n)
	if err := Dsteqr(CompIdentity, cut, d[:cut], e[:max(cut-1, 0)], q, n); err != nil {
		t.Fatal(err)
	}
	if err := Dsteqr(CompIdentity, n-cut, d[cut:], e[cut:], q[cut+cut*n:], n); err != nil {
		t.Fatal(err)
	}
	indxq := make([]int, n)
	for _, half := range [][2]int{{0, cut}, {cut, n}} {
		lo, hi := half[0], half[1]
		perm := rng.Perm(hi - lo) // column lo+c receives sorted pair perm[c]
		dh := append([]float64(nil), d[lo:hi]...)
		qh := append([]float64(nil), q[lo*n:hi*n]...)
		for c, p := range perm {
			d[lo+c] = dh[p]
			copy(q[(lo+c)*n:(lo+c+1)*n], qh[p*n:(p+1)*n])
			indxq[lo+p] = c // sorted position p sits in local column c
		}
	}
	z := make([]float64, n)
	for j := 0; j < cut; j++ {
		z[j] = q[cut-1+j*n]
	}
	for j := cut; j < n; j++ {
		z[j] = q[cut+j*n]
	}
	df, err := Dlaed2Deflate(n, cut, d, q, n, indxq, rho, z)
	if err != nil {
		t.Fatal(err)
	}
	return df, d, q
}

// checkSlots asserts the slot invariants of one merge: the slots of the
// deflated vectors plus the secular columns [0, K) form a permutation of the
// window, a vector keeps its own column unless that column is < K, and at
// most min(K, N−K) vectors move.
func checkSlots(t *testing.T, label string, df *Deflation) {
	t.Helper()
	n, k := df.N, df.K
	if nm := len(df.Moved); nm > min(k, n-k) || len(df.MovedTo) != nm {
		t.Fatalf("%s: %d moved (%d targets), want ≤ min(K=%d, N−K=%d)", label, nm, len(df.MovedTo), k, n-k)
	}
	if !slices.IsSorted(df.Moved) {
		t.Fatalf("%s: Moved not ascending: %v", label, df.Moved)
	}
	seen := make([]bool, n)
	for i := 0; i < k; i++ {
		seen[i] = true
	}
	for j := 0; j < n-k; j++ {
		s, src := df.Slot(j), df.Perm[k+j]
		if s < k || s >= n || seen[s] {
			t.Fatalf("%s: slot %d of deflated %d collides or lies in [0,K=%d)", label, s, j, k)
		}
		seen[s] = true
		if _, moved := slices.BinarySearch(df.Moved, j); moved != (src < k) || (!moved && s != src) {
			t.Fatalf("%s: deflated %d from column %d: slot %d, moved=%v", label, j, src, s, moved)
		}
	}
}

// finishValues completes the eigenvalue side of the merge the way the task
// flow does — secular roots into d[0:K], deflated eigenvalues to their slots
// — and returns MergeOrder's permutation.
func finishValues(t *testing.T, df *Deflation, d, q []float64) []int {
	t.Helper()
	ws := NewMergeWorkspace(df)
	defer ws.Release()
	df.PermutePanel(q, df.N, ws, 0, df.N)
	if df.K > 0 {
		if _, err := df.SecularPanel(ws, d, 0, df.K); err != nil {
			t.Fatal(err)
		}
	}
	df.CopyBackPanel(q, df.N, d, ws, 0, df.N-df.K)
	index := make([]int, df.N)
	df.MergeOrder(d, index)
	return index
}

// checkMergeOrder asserts index sorts d ascending and equals Dlamrg on
// LAPACK's layout (secular block ascending, deflated tail descending) mapped
// through the slots — the same permutation, ties included.
func checkMergeOrder(t *testing.T, label string, df *Deflation, d []float64, index []int) {
	t.Helper()
	n, k := df.N, df.K
	seen := make([]bool, n)
	for i, c := range index {
		if c < 0 || c >= n || seen[c] {
			t.Fatalf("%s: MergeOrder not a permutation: %v", label, index)
		}
		seen[c] = true
		if i > 0 && d[c] < d[index[i-1]] {
			t.Fatalf("%s: MergeOrder not ascending at %d: %v < %v", label, i, d[c], d[index[i-1]])
		}
	}
	if k == 0 {
		return // no Dlamrg: the all-deflated tail is already ascending
	}
	tail := make([]float64, n)
	copy(tail, d[:k])
	for j := 0; j < n-k; j++ {
		tail[k+j] = d[df.Slot(j)]
	}
	want := make([]int, n)
	Dlamrg(k, n-k, tail, 1, -1, want)
	for i, p := range want {
		if p >= k {
			p = df.Slot(p - k)
		}
		if index[i] != p {
			t.Fatalf("%s: MergeOrder[%d]=%d, Dlamrg through the slots gives %d", label, i, index[i], p)
		}
	}
}

// TestDeflationSlotsRandom checks the slot invariants and MergeOrder on
// random matrices (light deflation) with shuffled child layouts.
func TestDeflationSlotsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1201))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(90)
		cut := 1 + rng.Intn(n-1)
		d0 := make([]float64, n)
		e0 := make([]float64, n-1)
		for i := range d0 {
			d0[i] = rng.NormFloat64()
		}
		for i := range e0 {
			e0[i] = rng.NormFloat64()
			if rng.Intn(4) == 0 {
				e0[i] *= 1e-12 // near-splits deflate
			}
		}
		df, d, q := deflateShuffled(t, rng, d0, e0, cut)
		label := "random"
		checkSlots(t, label, df)
		checkMergeOrder(t, label, df, d, finishValues(t, df, d, q))
	}
}

// TestDeflationSlotsGlued checks the same invariants on glued Wilkinson
// matrices — repeated blocks coupled by tiny glue, the heavily (and at zero
// glue fully) deflating case with many tied eigenvalues.
func TestDeflationSlotsGlued(t *testing.T) {
	rng := rand.New(rand.NewSource(1202))
	for _, glue := range []float64{0, 1e-14, 1e-8} {
		for _, blocks := range []int{2, 3, 4} {
			const m = 21
			n := blocks * m
			d0 := make([]float64, n)
			e0 := make([]float64, n-1)
			for i := range d0 {
				d0[i] = math.Abs(float64(i%m - m/2))
			}
			for i := range e0 {
				e0[i] = 1
				if (i+1)%m == 0 {
					e0[i] = glue
				}
			}
			for _, cut := range []int{m, n / 2, n - m + 3} {
				df, d, q := deflateShuffled(t, rng, d0, e0, cut)
				checkSlots(t, "glued", df)
				checkMergeOrder(t, "glued", df, d, finishValues(t, df, d, q))
			}
		}
	}
}

// TestMergeOrderTies drives MergeOrder with secular values that tie the
// deflated ones exactly: Dlamrg lets the secular value win a tie, and runs of
// equal deflated values come out in tail order; the slot map must preserve
// both.
func TestMergeOrderTies(t *testing.T) {
	rng := rand.New(rand.NewSource(1203))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		n1 := 1 + rng.Intn(n-1)
		// Small-integer eigenvalues make ties everywhere; zero weights
		// deflate a random subset, equal values deflate by rotation.
		d := make([]float64, n)
		z := make([]float64, n)
		q := make([]float64, n*n)
		indxq := make([]int, n)
		for _, half := range [][2]int{{0, n1}, {n1, n}} {
			vals := make([]float64, half[1]-half[0])
			for i := range vals {
				vals[i] = float64(rng.Intn(4))
			}
			slices.Sort(vals)
			perm := rng.Perm(len(vals))
			for c, p := range perm {
				d[half[0]+c] = vals[p]
				indxq[half[0]+p] = c
			}
		}
		for i := range z {
			if rng.Intn(3) > 0 {
				z[i] = rng.NormFloat64()
			}
			q[i+i*n] = 1
		}
		df, err := Dlaed2Deflate(n, n1, d, q, n, indxq, 1, z)
		if err != nil {
			t.Fatal(err)
		}
		checkSlots(t, "ties", df)
		// Stand-in secular roots: the poles themselves, so secular values
		// tie deflated ones wherever the integer values repeat. Rounding
		// strips the rotations' last-bit noise, so both lists are exactly
		// sorted, as Dlamrg requires.
		for i, v := range df.Dlamda {
			d[i] = math.Round(v)
		}
		slices.Sort(d[:df.K])
		for j, v := range df.DeflD {
			d[df.Slot(j)] = math.Round(v)
		}
		index := make([]int, n)
		df.MergeOrder(d, index)
		checkMergeOrder(t, "ties", df, d, index)
	}
}

// TestPermutePanelCopiesOnlyMoved pins the data-movement contract: a fully
// deflated merge copies nothing, and in general PermuteV stages exactly the
// non-deflated blocks plus the moved columns, CopyBackDeflated exactly the
// moved columns.
func TestPermutePanelCopiesOnlyMoved(t *testing.T) {
	n, cut := 8, 4
	d := []float64{1, 2, 3, 4, 1, 2, 3, 4}
	q := make([]float64, n*n)
	for j := 0; j < n; j++ {
		q[j+j*n] = 1
	}
	z := make([]float64, n)
	z[cut-1], z[cut] = 1, 1
	df, err := Dlaed2Deflate(n, cut, d, q, n, []int{0, 1, 2, 3, 0, 1, 2, 3}, 1e-30, z)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewMergeWorkspace(df)
	defer ws.Release()
	if df.K != 0 || len(df.Moved) != 0 {
		t.Fatalf("full deflation: K=%d moved=%d", df.K, len(df.Moved))
	}
	if got := df.PermutePanel(q, n, ws, 0, n); got != 0 {
		t.Errorf("fully deflated PermuteV copied %d elements, want 0", got)
	}
	if got := df.CopyBackPanel(q, n, d, ws, 0, n); got != 0 {
		t.Errorf("fully deflated CopyBackDeflated copied %d elements, want 0", got)
	}

	rng := rand.New(rand.NewSource(1204))
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(60)
		d0 := make([]float64, n)
		e0 := make([]float64, n-1)
		for i := range d0 {
			d0[i] = float64(rng.Intn(5))
		}
		for i := range e0 {
			e0[i] = rng.NormFloat64()
		}
		df, _, q := deflateShuffled(t, rng, d0, e0, n/2)
		ws := NewMergeWorkspace(df)
		n1, n2 := df.N1, n-df.N1
		want := df.Ctot[colTop]*n1 + df.Ctot[colDense]*n + df.Ctot[colBottom]*n2 + len(df.Moved)*n
		if got := df.PermutePanel(q, n, ws, 0, n); got != want {
			t.Errorf("trial %d: PermuteV copied %d, want %d", trial, got, want)
		}
		if got := df.CopyBackPanel(q, n, make([]float64, n), ws, 0, n-df.K); got != len(df.Moved)*n {
			t.Errorf("trial %d: CopyBackDeflated copied %d, want %d", trial, got, len(df.Moved)*n)
		}
		ws.Release()
	}
}

// TestSortPlanStripsMatchSortEigen applies a sort plan strip by strip and
// checks the result against the whole-column SortEigen.
func TestSortPlanStripsMatchSortEigen(t *testing.T) {
	rng := rand.New(rand.NewSource(1205))
	for _, n := range []int{1, 2, 7, 64, 129} {
		ldq := n + 2
		perm := rng.Perm(n)
		d0 := make([]float64, n)
		q0 := make([]float64, n*ldq)
		for i := range d0 {
			d0[i] = rng.NormFloat64()
		}
		for i := range q0 {
			q0[i] = rng.NormFloat64()
		}
		wantD, wantQ := append([]float64(nil), d0...), append([]float64(nil), q0...)
		SortEigen(n, wantD, wantQ, ldq, append([]int(nil), perm...))

		d, q := append([]float64(nil), d0...), append([]float64(nil), q0...)
		indxq := append([]int(nil), perm...)
		p := NewSortPlan(n, d, indxq)
		for strips := 1; strips <= 3; strips++ {
			if strips > 1 {
				copy(q, q0)
			}
			for s := 0; s < strips; s++ {
				r0, r1 := s*n/strips, (s+1)*n/strips
				p.Apply(q, ldq, r0, r1, make([]float64, r1-r0))
			}
			if !slices.Equal(d, wantD) || !slices.Equal(q, wantQ) {
				t.Fatalf("n=%d strips=%d: strip-wise sort differs from SortEigen", n, strips)
			}
		}
		for i, v := range indxq {
			if v != i {
				t.Fatalf("n=%d: indxq not consumed to the identity", n)
			}
		}
	}
}
