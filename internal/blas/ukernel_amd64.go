//go:build amd64

package blas

// ukernel24x8avx512 is the AVX-512 register micro-kernel (ukernel_amd64.s):
// C(0:mr, 0:nr) += alpha * Ap·Bp over kc packed k steps of a 24×8 tile,
// with the row edge handled by opmask-masked C loads and stores and the
// column edge by a column count, so partial tiles run in the same kernel.
// Requires 1 <= mr <= 24, 1 <= nr <= 8 and kc >= 1.
//
//go:noescape
func ukernel24x8avx512(kc int, ap, bp []float64, c []float64, ldc, mr, nr int, alpha float64)

// ukernel8x4avx is the AVX2+FMA register micro-kernel (ukernel_amd64.s):
// C(0:8, 0:4) += alpha * Ap·Bp over kc packed k steps. Full tiles only.
//
//go:noescape
func ukernel8x4avx(kc int, ap, bp []float64, c []float64, ldc int, alpha float64)

// tileAVX2 runs full 8×4 tiles through the AVX2 kernel and edge tiles
// through the generic kernel, which shares its panel geometry (the panels
// are zero padded, so both compute a full tile and only the store is
// masked).
func tileAVX2(kb int, ap, bp, c []float64, ldc, mr, nr int, alpha float64) {
	if mr == genericMR && nr == genericNR {
		ukernel8x4avx(kb, ap, bp, c, ldc, alpha)
		return
	}
	ukernelGeneric(kb, ap, bp, c, ldc, mr, nr, alpha)
}
