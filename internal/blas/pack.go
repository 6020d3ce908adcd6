package blas

import (
	"math"

	"tridiag/internal/pool"
)

// Cache-blocking parameters of the BLIS-style GEMM shared by every kernel
// (see DESIGN.md §9); the micro-tile and the A block height belong to the
// kernel (ukernel). The macro loops tile the operands so one packed A block
// (mc×KC) stays L2-resident while a packed B block (KC×NC, ≤1 MiB) streams
// from L3, and every inner-loop access is contiguous. KC is the same for
// all kernels so they sum each C element in the same order.
const (
	gemmKC = 256 // depth per block
	gemmNC = 512 // columns per B block; a multiple of every kernel's nr
)

// PackedA is op(A) repacked for the blocked GEMM: row micro-panels of mr
// rows (the tile height of the kernel it was packed for), each storing its
// mr values per k step contiguously (zero padded past row m), so the
// micro-kernel streams A at unit stride. A PackedA may be shared by any
// number of concurrent PackedGemm calls — the paper's UpdateVect task group
// packs Q2 once per merge and lets all panel GEMMs of the merge reuse it.
type PackedA struct {
	kern *ukernel
	m, k int
	buf  []float64 // ceil(m/mr) panels × k steps × mr values
	// chk, when non-nil, holds the ABFT checksum rows of the operand
	// (PackAChecked): chk[0:k] the column sums, chk[k:2k] the absolute
	// column sums the Verify rounding bound is built from.
	chk []float64
}

// PackA packs op(A) (m×k, op controlled by transA) into micro-panel form.
// The buffer comes from the scratch pool; call Release when no GEMM will
// use it again.
func PackA(transA bool, m, k int, a []float64, lda int) *PackedA {
	return packA(transA, m, k, a, lda, false)
}

// packA packs op(A) for the active kernel. With checked it also
// accumulates the ABFT checksum rows while each value is copied, adding rows
// in ascending order per column l — the order a row-by-row sum of op(A)
// would use.
func packA(transA bool, m, k int, a []float64, lda int, checked bool) *PackedA {
	uk := activeKernel.Load()
	mr := uk.mr
	panels := (m + mr - 1) / mr
	pa := &PackedA{kern: uk, m: m, k: k, buf: pool.Get(panels * mr * k)}
	var chk, abschk []float64
	if checked {
		pa.chk = pool.Get(2 * k)
		clear(pa.chk)
		chk, abschk = pa.chk[:k], pa.chk[k:2*k]
	}
	for ip := 0; ip < panels; ip++ {
		i0 := ip * mr
		rows := min(mr, m-i0)
		dst := pa.buf[ip*mr*k:]
		if !transA {
			// op(A)[i, l] = a[i + l*lda]: column slices copy contiguously,
			// and the checksum rows sum each slice as it is copied.
			for l := 0; l < k; l++ {
				src := a[i0+l*lda : i0+l*lda+rows]
				d := dst[l*mr : l*mr+mr]
				copy(d, src)
				if rows < mr {
					clear(d[rows:])
				}
				if checked {
					s, as := chk[l], abschk[l]
					for _, v := range src {
						s += v
						as += math.Abs(v)
					}
					chk[l], abschk[l] = s, as
				}
			}
		} else {
			// op(A)[i, l] = a[l + i*lda]: rows of op(A) are source columns.
			for r := 0; r < rows; r++ {
				src := a[(i0+r)*lda : (i0+r)*lda+k]
				for l, v := range src {
					dst[l*mr+r] = v
				}
				if checked {
					for l, v := range src {
						chk[l] += v
						abschk[l] += math.Abs(v)
					}
				}
			}
			for l := 0; l < k; l++ {
				clear(dst[l*mr+rows : l*mr+mr])
			}
		}
	}
	return pa
}

// Dims returns the (m, k) shape of the packed operand.
func (pa *PackedA) Dims() (m, k int) { return pa.m, pa.k }

// Bytes returns the size of the packed buffer, for traffic accounting.
func (pa *PackedA) Bytes() int { return 8 * len(pa.buf) }

// PooledBytes returns the pool-accounted bytes of the pack buffer (its
// size-class capacity), for leak accounting of abandoned merges.
func (pa *PackedA) PooledBytes() int64 {
	return pool.AccountedBytes(pa.buf) + pool.AccountedBytes(pa.chk)
}

// Release returns the pack buffer (and any checksum rows) to the scratch
// pool. The PackedA must not be used afterwards.
func (pa *PackedA) Release() {
	pool.Put(pa.buf)
	pa.buf = nil
	pool.Put(pa.chk)
	pa.chk = nil
}

// packB packs op(B)(pc:pc+kb, jc:jc+nb) into column micro-panels of nr
// columns, each storing its nr values per k step contiguously (zero padded
// past column nb), into buf (ceil(nb/nr)*nr*kb floats).
func packB(nr int, transB bool, pc, jc, kb, nb int, b []float64, ldb int, buf []float64) {
	panels := (nb + nr - 1) / nr
	for jp := 0; jp < panels; jp++ {
		j0 := jp * nr
		cols := min(nr, nb-j0)
		dst := buf[jp*nr*kb:]
		if !transB {
			// op(B)[l, j] = b[l + j*ldb]: source columns are contiguous and
			// scatter at stride nr, four k steps per iteration (a plain
			// one-store loop measured 2× slower with the stride a variable).
			for jj := 0; jj < cols; jj++ {
				src := b[pc+(jc+j0+jj)*ldb : pc+(jc+j0+jj)*ldb+kb]
				d := dst[jj : jj+(kb-1)*nr+1]
				l, o := 0, 0
				for ; l+4 <= kb; l, o = l+4, o+4*nr {
					s := src[l : l+4 : l+4]
					d[o] = s[0]
					d[o+nr] = s[1]
					d[o+2*nr] = s[2]
					d[o+3*nr] = s[3]
				}
				for ; l < kb; l, o = l+1, o+nr {
					d[o] = src[l]
				}
			}
		} else {
			// op(B)[l, j] = b[j + l*ldb]: source rows are contiguous.
			for l := 0; l < kb; l++ {
				src := b[jc+j0+(pc+l)*ldb : jc+j0+(pc+l)*ldb+cols]
				copy(dst[l*nr:l*nr+cols], src)
			}
		}
		if cols < nr {
			for l := 0; l < kb; l++ {
				clear(dst[l*nr+cols : l*nr+nr])
			}
		}
	}
}
