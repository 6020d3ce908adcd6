//go:build amd64

package simd

// cpuidProbe and xgetbvProbe are implemented in simd_amd64.s.
func cpuidProbe(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbvProbe() (eax, edx uint32)

// The AVX2+FMA secular kernels (simd_amd64.s). Each processes exactly
// len/4 quads — the Go wrappers pass 4-aligned slices and handle the tails —
// and accumulates with separate multiply and add so the results are bitwise
// identical to the portable lane-ordered fallbacks (see the package comment).
//
//go:noescape
func secularSumsAVX(z, delta []float64, w0, wstep float64) (s, ds, ws float64)

//go:noescape
func shiftedSumAVX(d, z []float64, org, tau float64) float64

//go:noescape
func mulRatioDiffAVX(w, num, den []float64, dj float64)

//go:noescape
func ratioSumSqAVX(dst, num, den []float64) float64

//go:noescape
func mulIntoAVX(dst, src []float64)

//go:noescape
func negSqrtSignAVX(dst, p, sgn []float64)

// haveSIMD reports whether the assembly kernels may be used: AVX2 and FMA in
// CPUID plus OS ymm-state saving in XGETBV (the standard AVX usability
// test). internal/blas gates its AVX2 micro-kernel on the same probe.
var haveSIMD = detectAVX2FMA()

// haveAVX512 reports whether AVX-512 Foundation instructions may be used:
// AVX2+FMA as above, AVX512F in CPUID leaf 7, and OS saving of the opmask
// and full ZMM state in XCR0.
var haveAVX512 = haveSIMD && detectAVX512F()

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidProbe(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidProbe(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
	)
	if ecx1&osxsave == 0 || ecx1&fma == 0 {
		return false
	}
	if xa, _ := xgetbvProbe(); xa&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuidProbe(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// detectAVX512F assumes detectAVX2FMA passed (leaf 7 exists, OSXSAVE set).
func detectAVX512F() bool {
	_, ebx7, _, _ := cpuidProbe(7, 0)
	const avx512f = 1 << 16
	if ebx7&avx512f == 0 {
		return false
	}
	// XCR0 bits 1-2 (SSE, AVX) and 5-7 (opmask, ZMM0-15 upper, ZMM16-31).
	const zmmState = 0xE6
	xa, _ := xgetbvProbe()
	return xa&zmmState == zmmState
}

//go:noescape
func tridiagResidualAVX(dd, em, ep, vm, vv, vp []float64, lam float64) (r2, v2 float64)

//go:noescape
func dotPairAbsAVX(x, ax, y []float64) (dot, absdot float64)

//go:noescape
func sumAVX(x []float64) float64
