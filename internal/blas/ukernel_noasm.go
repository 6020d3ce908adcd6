//go:build !amd64

package blas

// Non-amd64 platforms have no assembly micro-kernels: the host kernel list
// holds only the generic kernel, so these are never dispatched to.

func ukernel24x8avx512(kc int, ap, bp []float64, c []float64, ldc, mr, nr int, alpha float64) {
	panic("blas: ukernel24x8avx512 called without assembly support")
}

func tileAVX2(kb int, ap, bp, c []float64, ldc, mr, nr int, alpha float64) {
	panic("blas: tileAVX2 called without assembly support")
}
