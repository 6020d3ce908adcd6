package blas

import (
	"math"
	"math/rand"
	"testing"

	"tridiag/internal/pool"
)

// forEachKernel runs fn as one subtest per micro-kernel — avx512, avx2,
// generic — with GEMMs dispatched to that kernel. A kernel the host CPU
// cannot run is skipped with the reason logged.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, uk := range []*ukernel{kernAVX512, kernAVX2, kernGeneric} {
		t.Run(uk.name, func(t *testing.T) {
			restore, ok := ForceKernel(uk.name)
			if !ok {
				t.Skipf("host CPU cannot run the %s micro-kernel", uk.name)
			}
			defer restore()
			fn(t)
		})
	}
}

// TestBlockedGemmMatchesNaive drives the cache-blocked path directly under
// every kernel across all transpose combos, odd m/n/k tails around every
// kernel's micro-tile and block boundaries (8×4/128 and 24×8/144, KC=256),
// alpha/beta edge cases, and lda > m shapes.
func TestBlockedGemmMatchesNaive(t *testing.T) {
	dims := []struct{ m, n, k int }{
		{1, 1, 1}, {8, 4, 16}, {7, 3, 5}, {9, 5, 17}, {16, 8, 32},
		{65, 9, 31}, {129, 130, 40}, {33, 7, 257}, {140, 19, 300}, {8, 4, 1},
	}
	// The 24×8 tile's row and block edges, each paired with a column edge
	// and a depth around gemmKC.
	ns := []int{7, 8, 9, 17}
	ks := []int{gemmKC - 1, gemmKC, gemmKC + 1, 3}
	for i, m := range []int{23, 24, 25, 47, 48, 49, 143, 144, 145} {
		dims = append(dims, struct{ m, n, k int }{m, ns[i%len(ns)], ks[i%len(ks)]})
	}
	coefs := []struct{ alpha, beta float64 }{{1, 0}, {-0.5, 1}, {2, 0.25}, {0, 0.5}}
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for _, d := range dims {
					for _, coef := range coefs {
						ar, ac := d.m, d.k
						if ta {
							ar, ac = d.k, d.m
						}
						br, bc := d.k, d.n
						if tb {
							br, bc = d.n, d.k
						}
						lda, ldb, ldc := ar+3, br+1, d.m+2
						a := randMat(rng, ar, ac, lda)
						b := randMat(rng, br, bc, ldb)
						c := randMat(rng, d.m, d.n, ldc)
						want := append([]float64(nil), c...)
						naiveGemm(ta, tb, d.m, d.n, d.k, coef.alpha, a, lda, b, ldb, coef.beta, want, ldc)
						gemmBlocked(ta, tb, d.m, d.n, d.k, coef.alpha, a, lda, b, ldb, coef.beta, c, ldc)
						for j := 0; j < d.n; j++ {
							for i := 0; i < d.m; i++ {
								if !almostEqual(c[i+j*ldc], want[i+j*ldc], 1e-12) {
									t.Fatalf("blocked ta=%v tb=%v %v coef=%v at (%d,%d): got %v want %v",
										ta, tb, d, coef, i, j, c[i+j*ldc], want[i+j*ldc])
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestPackedGemmMatchesDgemm packs A once and reuses it across several
// column panels of B/C — the per-merge reuse pattern of UpdateVect — under
// every kernel.
func TestPackedGemmMatchesDgemm(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for _, sh := range []struct{ m, k, n, nb int }{
			{60, 45, 96, 32}, {8, 8, 4, 4}, {130, 17, 65, 16}, {37, 300, 48, 13},
		} {
			lda, ldb, ldc := sh.m+1, sh.k, sh.m+4
			a := randMat(rng, sh.m, sh.k, lda)
			b := randMat(rng, sh.k, sh.n, ldb)
			c := randMat(rng, sh.m, sh.n, ldc)
			want := append([]float64(nil), c...)
			naiveGemm(false, false, sh.m, sh.n, sh.k, 1.25, a, lda, b, ldb, 0.5, want, ldc)

			pa := PackA(false, sh.m, sh.k, a, lda)
			if m, k := pa.Dims(); m != sh.m || k != sh.k {
				t.Fatalf("Dims: got (%d,%d) want (%d,%d)", m, k, sh.m, sh.k)
			}
			if pa.Bytes() <= 0 {
				t.Fatal("Bytes: want positive")
			}
			// Panelized calls against the shared pack, as UpdateVect issues them.
			for j0 := 0; j0 < sh.n; j0 += sh.nb {
				ncol := min(sh.nb, sh.n-j0)
				PackedGemm(pa, ncol, 1.25, b[j0*ldb:], ldb, 0.5, c[j0*ldc:], ldc)
			}
			pa.Release()
			for j := 0; j < sh.n; j++ {
				for i := 0; i < sh.m; i++ {
					if !almostEqual(c[i+j*ldc], want[i+j*ldc], 1e-12) {
						t.Fatalf("packed %v at (%d,%d): got %v want %v", sh, i, j, c[i+j*ldc], want[i+j*ldc])
					}
				}
			}
		}
	})
}

// TestPackedGemmEdgeCases covers alpha=0 and transposed-A packing under
// every kernel.
func TestPackedGemmEdgeCases(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		m, k, n := 13, 9, 6
		a := randMat(rng, k, m, k) // packed with transA: op(A) is m×k
		b := randMat(rng, k, n, k)
		c := randMat(rng, m, n, m)
		want := append([]float64(nil), c...)
		naiveGemm(true, false, m, n, k, -2, a, k, b, k, 0, want, m)
		pa := PackA(true, m, k, a, k)
		PackedGemm(pa, n, -2, b, k, 0, c, m)
		pa.Release()
		for i := range c {
			if !almostEqual(c[i], want[i], 1e-12) {
				t.Fatalf("transA packed at %d: got %v want %v", i, c[i], want[i])
			}
		}

		// alpha=0 scales C by beta without touching the packed operand.
		c2 := randMat(rng, m, n, m)
		want2 := append([]float64(nil), c2...)
		for i := range want2 {
			want2[i] *= 0.5
		}
		pa2 := PackA(false, m, k, randMat(rng, m, k, m), m)
		PackedGemm(pa2, n, 0, b, k, 0.5, c2, m)
		pa2.Release()
		for i := range c2 {
			if !almostEqual(c2[i], want2[i], 1e-12) {
				t.Fatalf("alpha=0 at %d", i)
			}
		}
	})
}

// TestDgemmTTTiled re-checks the rewritten Aᵀ·Bᵀ path on shapes whose m/n
// parity hits every tail combination of the 2×2 tiling.
func TestDgemmTTTiled(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, d := range []struct{ m, n, k int }{
		{1, 1, 3}, {2, 2, 4}, {3, 3, 5}, {2, 3, 7}, {3, 2, 7}, {12, 11, 20}, {11, 12, 1},
	} {
		lda, ldb, ldc := d.k+2, d.n+1, d.m+1
		a := randMat(rng, d.k, d.m, lda)
		b := randMat(rng, d.n, d.k, ldb)
		for _, coef := range []struct{ alpha, beta float64 }{{1, 0}, {-1.5, 0.75}} {
			c := randMat(rng, d.m, d.n, ldc)
			want := append([]float64(nil), c...)
			naiveGemm(true, true, d.m, d.n, d.k, coef.alpha, a, lda, b, ldb, coef.beta, want, ldc)
			gemmTT(d.m, d.n, d.k, coef.alpha, a, lda, b, ldb, coef.beta, c, ldc)
			for j := 0; j < d.n; j++ {
				for i := 0; i < d.m; i++ {
					if !almostEqual(c[i+j*ldc], want[i+j*ldc], 1e-12) {
						t.Fatalf("gemmTT %v coef=%v at (%d,%d)", d, coef, i, j)
					}
				}
			}
		}
	}
}

// TestPackWorthwhileConsistent: at the threshold boundaries of every
// kernel, PackWorthwhile must agree with the path Dgemm actually takes —
// observed through the pool, which only the blocked path draws pack buffers
// from — so pre-packing never selects a slower path than the plain call.
func TestPackWorthwhileConsistent(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		uk := activeKernel.Load()
		shapes := [][3]int{
			{15, 64, 64}, {16, 64, 64}, {64, 3, 64}, {64, 4, 64}, {64, 64, 7}, {64, 64, 8},
			{256, 256, 256}, {1000, 128, 900}, {4, 4, 4}, {16, 2, 64},
		}
		if uk.minWork > 0 {
			// Just below and at the kernel's m·n·k threshold.
			k := int(uk.minWork / (16 * 8))
			shapes = append(shapes, [3]int{16, 8, k - 1}, [3]int{16, 8, k})
		}
		rng := rand.New(rand.NewSource(25))
		var packed, plain int
		for _, sh := range shapes {
			m, n, k := sh[0], sh[1], sh[2]
			a := randMat(rng, m, k, m)
			b := randMat(rng, k, n, k)
			c := make([]float64, m*n)
			before := pool.Counters().Gets
			Dgemm(false, false, m, n, k, 1, a, m, b, k, 0, c, m)
			blocked := pool.Counters().Gets > before
			if got := PackWorthwhile(m, n, k); got != blocked {
				t.Errorf("%v: PackWorthwhile=%v but Dgemm took the blocked path=%v", sh, got, blocked)
			}
			if blocked {
				packed++
			} else {
				plain++
			}
		}
		if uk.minWork > 0 && (packed == 0 || plain == 0) {
			t.Errorf("boundary shapes exercised only one side: %d blocked, %d plain", packed, plain)
		}
		if uk.minWork == 0 && packed > 0 {
			t.Errorf("generic kernel: %d shapes took the blocked path", packed)
		}
	})
}

// TestAVX512MatchesAVX2Bitwise: both assembly kernels accumulate every C
// element over k in order with FMA and finish with c = fma(alpha, acc, c),
// so on shapes both cover with assembly tiles (m a multiple of 8, n of 4)
// their results are bit-identical — including the 24×8 kernel's masked
// edge tiles, which are full 8×4 tiles for the AVX2 kernel.
func TestAVX512MatchesAVX2Bitwise(t *testing.T) {
	for _, name := range []string{"avx512", "avx2"} {
		restore, ok := ForceKernel(name)
		restore()
		if !ok {
			t.Skipf("host CPU cannot run the %s micro-kernel", name)
		}
	}
	run := func(name string, ta, tb bool, m, n, k int, a, b, c []float64) []float64 {
		restore, _ := ForceKernel(name)
		defer restore()
		c = append([]float64(nil), c...)
		lda, ldb := m, k
		if ta {
			lda = k
		}
		if tb {
			ldb = n
		}
		gemmBlocked(ta, tb, m, n, k, 1.5, a, lda, b, ldb, 0.5, c, m)
		return c
	}
	rng := rand.New(rand.NewSource(26))
	dims := [][3]int{{144, 520, 300}}
	for _, m := range []int{16, 24, 40, 48, 152} {
		for _, n := range []int{4, 8, 12, 16} {
			for _, k := range []int{1, 7, gemmKC, gemmKC + 44} {
				dims = append(dims, [3]int{m, n, k})
			}
		}
	}
	for _, d := range dims {
		m, n, k := d[0], d[1], d[2]
		a := randMat(rng, m, k, m) // as m×k or, transposed, k×m storage
		b := randMat(rng, k, n, k)
		c := randMat(rng, m, n, m)
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				c512 := run("avx512", ta, tb, m, n, k, a, b, c)
				c2 := run("avx2", ta, tb, m, n, k, a, b, c)
				for i := range c512 {
					if math.Float64bits(c512[i]) != math.Float64bits(c2[i]) {
						t.Fatalf("%v ta=%v tb=%v: element %d differs: avx512 %v, avx2 %v", d, ta, tb, i, c512[i], c2[i])
					}
				}
			}
		}
	}
}
