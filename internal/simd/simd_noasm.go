//go:build !amd64

package simd

// Non-amd64 platforms have no assembly kernels: every entry point runs the
// portable lane-ordered fallback, which computes bitwise-identical results.
var haveSIMD = false

var haveAVX512 = false

func secularSumsAVX(z, delta []float64, w0, wstep float64) (s, ds, ws float64) {
	panic("simd: secularSumsAVX called without assembly support")
}

func shiftedSumAVX(d, z []float64, org, tau float64) float64 {
	panic("simd: shiftedSumAVX called without assembly support")
}

func mulRatioDiffAVX(w, num, den []float64, dj float64) {
	panic("simd: mulRatioDiffAVX called without assembly support")
}

func ratioSumSqAVX(dst, num, den []float64) float64 {
	panic("simd: ratioSumSqAVX called without assembly support")
}

func mulIntoAVX(dst, src []float64) {
	panic("simd: mulIntoAVX called without assembly support")
}

func negSqrtSignAVX(dst, p, sgn []float64) {
	panic("simd: negSqrtSignAVX called without assembly support")
}

func tridiagResidualAVX(dd, em, ep, vm, vv, vp []float64, lam float64) (r2, v2 float64) {
	panic("simd: tridiagResidualAVX called without assembly support")
}

func dotPairAbsAVX(x, ax, y []float64) (dot, absdot float64) {
	panic("simd: dotPairAbsAVX called without assembly support")
}

func sumAVX(x []float64) float64 {
	panic("simd: sumAVX called without assembly support")
}
