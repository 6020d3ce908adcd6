package blas

import (
	"sync/atomic"

	"tridiag/internal/pool"
	"tridiag/internal/simd"
)

// ukernel is one register micro-kernel of the blocked GEMM together with
// the tile geometry its packed panels are laid out for. A PackedA records
// the kernel it was packed for, so a pack is always consumed with its own
// geometry even if the dispatch changes in between.
type ukernel struct {
	name   string
	mr, nr int // micro-tile rows and columns of C
	mc     int // rows per packed A block; a multiple of mr
	// minWork is the smallest m·n·k at which the blocked path (packing
	// included) beats the register-blocked gemmNN, measured per kernel;
	// 0 keeps Dgemm off the blocked path.
	minWork int64
	// tile computes C(0:mr', 0:nr') += alpha·Ap·Bp over kb packed k steps
	// for the valid mr'×nr' region of one micro-tile.
	tile func(kb int, ap, bp, c []float64, ldc, mr, nr int, alpha float64)
}

// The micro-kernels, fastest first (DESIGN.md §9). The A blocks (mc×KC)
// stay L2-resident: 288 KiB for the 24×8 tile, 256 KiB for the 8×4 ones.
var (
	kernAVX512  = &ukernel{name: "avx512", mr: 24, nr: 8, mc: 144, minWork: 1 << 13, tile: ukernel24x8avx512}
	kernAVX2    = &ukernel{name: "avx2", mr: genericMR, nr: genericNR, mc: 128, minWork: 1 << 15, tile: tileAVX2}
	kernGeneric = &ukernel{name: "generic", mr: genericMR, nr: genericNR, mc: 128, tile: ukernelGeneric}
)

// hostKernels lists the kernels this CPU can run, fastest first. The
// choice is made once, from CPUID/XGETBV (internal/simd's probe).
var hostKernels = func() []*ukernel {
	var ks []*ukernel
	if simd.AVX512() {
		ks = append(ks, kernAVX512)
	}
	if simd.Available() {
		ks = append(ks, kernAVX2)
	}
	return append(ks, kernGeneric)
}()

// activeKernel is the kernel every GEMM dispatches to: hostKernels[0],
// except while a test or benchmark holds ForceKernel.
var activeKernel atomic.Pointer[ukernel]

func init() { activeKernel.Store(hostKernels[0]) }

// Kernel returns the name of the micro-kernel GEMMs dispatch to: "avx512",
// "avx2" or "generic".
func Kernel() string { return activeKernel.Load().name }

// ForceKernel makes GEMMs dispatch to the named kernel until restore is
// called. It exists for tests and benchmarks that compare the kernels on
// one host; it reports false, changing nothing, when the host cannot run
// the kernel. Not for use while other goroutines start GEMMs.
func ForceKernel(name string) (restore func(), ok bool) {
	for _, uk := range hostKernels {
		if uk.name == name {
			prev := activeKernel.Swap(uk)
			return func() { activeKernel.Store(prev) }, true
		}
	}
	return func() {}, false
}

// blockedWorthwhile reports whether the cache-blocked packed path should
// handle a GEMM of this shape: the active kernel is an assembly one (the
// register-blocked kernels in level3.go already saturate scalar FP ports)
// and the shape carries enough work to amortize the two pack passes. The
// bounds are measured against gemmNN (DESIGN.md §9): below 16 rows or 8
// depth steps gemmNN wins with either kernel; the masked 24×8 tile pays
// off from m·n·k = 2^13, the 8×4 one (generic edge tiles) from 2^15.
func blockedWorthwhile(m, n, k int) bool {
	uk := activeKernel.Load()
	if uk.minWork == 0 || m < 16 || n < 4 || k < 8 {
		return false
	}
	return int64(m)*int64(n)*int64(k) >= uk.minWork
}

// PackWorthwhile reports whether packing op(A) up front pays off for GEMMs
// of the given shape — the predicate callers use to decide whether to build
// a PackedA for repeated PackedGemm calls (n is the typical per-call column
// count). It mirrors the internal dispatch of Dgemm so a pre-packed call
// never lands on a slower path than the plain one.
func PackWorthwhile(m, n, k int) bool { return blockedWorthwhile(m, n, k) }

// gemmBlocked is the BLIS-style three-level cache-blocked GEMM: pack op(A)
// into micro-panels once, then stream KC×NC blocks of packed op(B) against
// MC×KC blocks of A through the register micro-kernel.
func gemmBlocked(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	pa := PackA(transA, m, k, a, lda)
	// Deferred so the pack buffer is returned (and the accountant credited)
	// even when a task panic unwinds through the kernel.
	defer pa.Release()
	packedGemm(pa, transB, n, alpha, b, ldb, beta, c, ldc)
}

// PackedGemm computes C = alpha*Ap*B + beta*C where Ap is a pre-packed
// operand (m×k from pa.Dims) and B is k×n column-major, non-transposed.
// Safe for concurrent calls sharing one PackedA: the B pack buffer is
// per-call (pooled) and C regions are the caller's responsibility.
func PackedGemm(pa *PackedA, n int, alpha float64, b []float64, ldb int, beta float64, c []float64, ldc int) {
	packedGemm(pa, false, n, alpha, b, ldb, beta, c, ldc)
}

func packedGemm(pa *PackedA, transB bool, n int, alpha float64, b []float64, ldb int, beta float64, c []float64, ldc int) {
	m, k := pa.m, pa.k
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 || k == 0 {
		scaleCols(m, n, beta, c, ldc)
		return
	}
	uk := pa.kern
	ncbMax := min(n, gemmNC)
	kbMax := min(k, gemmKC)
	bbuf := pool.Get(((ncbMax + uk.nr - 1) / uk.nr) * uk.nr * kbMax)
	defer pool.Put(bbuf)
	for jc := 0; jc < n; jc += gemmNC {
		ncb := min(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kb := min(gemmKC, k-pc)
			packB(uk.nr, transB, pc, jc, kb, ncb, b, ldb, bbuf)
			if pc == 0 {
				scaleCols(m, ncb, beta, c[jc*ldc:], ldc)
			}
			for ic := 0; ic < m; ic += uk.mc {
				mb := min(uk.mc, m-ic)
				macroKernel(pa, pc, kb, ic, mb, bbuf, ncb, alpha, c[ic+jc*ldc:], ldc)
			}
		}
	}
}

// macroKernel multiplies one MC×KC block of packed A against one KC×NC
// block of packed B, updating C(ic:ic+mb, jc:jc+ncb) micro-tile by
// micro-tile through the operand's kernel, edge tiles included.
func macroKernel(pa *PackedA, pc, kb, ic, mb int, bbuf []float64, ncb int, alpha float64, c []float64, ldc int) {
	uk := pa.kern
	mr, nr := uk.mr, uk.nr
	// ic is a multiple of mr: the block's first panel, then one panel
	// (mr·k values) per micro-tile row.
	a0 := ic*pa.k + pc*mr
	for jr := 0; jr < ncb; jr += nr {
		bp := bbuf[jr*kb:]
		nrr := min(nr, ncb-jr)
		for ir, ao := 0, a0; ir < mb; ir, ao = ir+mr, ao+mr*pa.k {
			uk.tile(kb, pa.buf[ao:], bp, c[ir+jr*ldc:], ldc, min(mr, mb-ir), nrr, alpha)
		}
	}
}

// Tile geometry of the generic kernel, shared by the AVX2 kernel.
const (
	genericMR = 8
	genericNR = 4
)

// ukernelGeneric is the portable micro-kernel: eight accumulator chains per
// C column over the packed panels, stores masked to the valid mr×nr region.
// Used for the AVX2 kernel's edge tiles and on platforms without assembly.
func ukernelGeneric(kb int, ap, bp []float64, c []float64, ldc, mr, nr int, alpha float64) {
	ap = ap[: kb*genericMR : kb*genericMR]
	for j := 0; j < nr; j++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for l := 0; l < kb; l++ {
			bv := bp[l*genericNR+j]
			o := l * genericMR
			s0 += ap[o] * bv
			s1 += ap[o+1] * bv
			s2 += ap[o+2] * bv
			s3 += ap[o+3] * bv
			s4 += ap[o+4] * bv
			s5 += ap[o+5] * bv
			s6 += ap[o+6] * bv
			s7 += ap[o+7] * bv
		}
		col := c[j*ldc:]
		if mr == genericMR {
			col[0] += alpha * s0
			col[1] += alpha * s1
			col[2] += alpha * s2
			col[3] += alpha * s3
			col[4] += alpha * s4
			col[5] += alpha * s5
			col[6] += alpha * s6
			col[7] += alpha * s7
		} else {
			ss := [genericMR]float64{s0, s1, s2, s3, s4, s5, s6, s7}
			for r := 0; r < mr; r++ {
				col[r] += alpha * ss[r]
			}
		}
	}
}
