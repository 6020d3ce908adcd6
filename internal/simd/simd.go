// Package simd provides the vector kernels of the secular phase of the D&C
// eigensolver: the ψ/φ/erretm partial sums of the secular function and its
// derivative (Dlaed4's inner loops), the fused reciprocal-difference products
// of Gu's stabilization (ComputeLocalW), the form-and-normalize ratios of the
// secular eigenvectors (ComputeVect), and the cross-panel product reduction
// (ReduceW). On amd64 with AVX2+FMA the kernels dispatch to hand-written
// assembly (simd_amd64.s), gated by the same CPUID/XGETBV usability test as
// the blocked-GEMM micro-kernel; everywhere else they run portable Go.
//
// Kernel semantics are fixed independently of dispatch: the assembly and the
// portable fallbacks process elements in the same order — four interleaved
// lane accumulators over the 4-aligned prefix, combined as (l0+l2)+(l1+l3),
// then the scalar tail — with the same rounding (the accumulations use
// separate multiply and add, never FMA contractions, and divisions and square
// roots are correctly rounded on both paths). A solve therefore computes
// bitwise-identical results whether the assembly kernels are active or not.
// The loops are division-bound, so skipping FMA in the surrounding adds
// costs nothing.
package simd

import "math"

// active gates dispatch to the assembly kernels. Flipped only by SetSIMD
// (benchmarks and property tests); not safe to toggle concurrently with
// kernel calls.
var active = haveSIMD

// Available reports whether the AVX2+FMA assembly kernels exist on this
// platform and CPU.
func Available() bool { return haveSIMD }

// AVX512 reports whether the CPU supports AVX-512 Foundation instructions
// and the OS saves the opmask and ZMM register state — the gate of
// internal/blas's 24×8 zmm GEMM micro-kernel.
func AVX512() bool { return haveAVX512 }

// Active reports whether kernel calls currently dispatch to assembly.
func Active() bool { return active }

// SetSIMD enables or disables the assembly kernels. Enabling is a no-op when
// the hardware does not support them. Intended for benchmarks and tests
// (scalar-vs-SIMD columns); do not toggle concurrently with kernel use.
func SetSIMD(on bool) { active = on && haveSIMD }

// SecularSums accumulates, over j in [0, len(z)), the three sums of one
// secular-function evaluation pass with t_j = z[j]/delta[j]:
//
//	s  = Σ z[j]·t_j          (ψ or φ, the secular partial sum)
//	ds = Σ t_j·t_j           (its derivative)
//	ws = Σ (w0+j·wstep)·z[j]·t_j
//
// ws is the running-prefix error accumulation of LAPACK DLAED4 rewritten as
// a weighted single pass: the reference adds the prefix sum of ψ to erretm
// after every term, which weights term j by the number of remaining terms.
// Forward (ascending) accumulation over m terms uses w0=m, wstep=-1; the
// reference's descending φ loop maps to w0=1, wstep=+1 over the same slice
// in ascending order. Weights must be exactly representable integers.
func SecularSums(z, delta []float64, w0, wstep float64) (s, ds, ws float64) {
	n := len(z)
	n4 := n &^ 3
	if n4 > 0 {
		if active {
			s, ds, ws = secularSumsAVX(z[:n4], delta[:n4], w0, wstep)
		} else {
			s, ds, ws = secularSumsGo(z[:n4], delta[:n4], w0, wstep)
		}
	}
	for j := n4; j < n; j++ {
		t := z[j] / delta[j]
		p := z[j] * t
		s += p
		ds += t * t
		ws += (w0 + float64(j)*wstep) * p
	}
	return s, ds, ws
}

func secularSumsGo(z, delta []float64, w0, wstep float64) (s, ds, ws float64) {
	var s0, s1, s2, s3, d0, d1, d2, d3, u0, u1, u2, u3 float64
	wv0, wv1, wv2, wv3 := w0, w0+wstep, w0+2*wstep, w0+3*wstep
	wstep4 := 4 * wstep
	for j := 0; j+3 < len(z); j += 4 {
		t0 := z[j] / delta[j]
		t1 := z[j+1] / delta[j+1]
		t2 := z[j+2] / delta[j+2]
		t3 := z[j+3] / delta[j+3]
		p0 := z[j] * t0
		p1 := z[j+1] * t1
		p2 := z[j+2] * t2
		p3 := z[j+3] * t3
		s0 += p0
		s1 += p1
		s2 += p2
		s3 += p3
		d0 += t0 * t0
		d1 += t1 * t1
		d2 += t2 * t2
		d3 += t3 * t3
		u0 += wv0 * p0
		u1 += wv1 * p1
		u2 += wv2 * p2
		u3 += wv3 * p3
		wv0 += wstep4
		wv1 += wstep4
		wv2 += wstep4
		wv3 += wstep4
	}
	return (s0 + s2) + (s1 + s3), (d0 + d2) + (d1 + d3), (u0 + u2) + (u1 + u3)
}

// SumRatios returns Σ (z[j]·z[j])/den[j], the plain secular partial sum used
// by Dlaed4's initial-guess evaluations.
func SumRatios(z, den []float64) float64 {
	return ShiftedSumRatios(den, z, 0, 0)
}

// ShiftedSumRatios returns Σ z[j]·z[j] / ((d[j]-org)-tau), the secular
// function body evaluated with the cancellation-free two-step shift — the
// inner loop of the bisection safeguard Dlaed4Bisect.
func ShiftedSumRatios(d, z []float64, org, tau float64) (s float64) {
	n := len(d)
	n4 := n &^ 3
	if n4 > 0 {
		if active {
			s = shiftedSumAVX(d[:n4], z[:n4], org, tau)
		} else {
			s = shiftedSumGo(d[:n4], z[:n4], org, tau)
		}
	}
	for j := n4; j < n; j++ {
		s += z[j] * z[j] / ((d[j] - org) - tau)
	}
	return s
}

func shiftedSumGo(d, z []float64, org, tau float64) float64 {
	var s0, s1, s2, s3 float64
	for j := 0; j+3 < len(d); j += 4 {
		s0 += z[j] * z[j] / ((d[j] - org) - tau)
		s1 += z[j+1] * z[j+1] / ((d[j+1] - org) - tau)
		s2 += z[j+2] * z[j+2] / ((d[j+2] - org) - tau)
		s3 += z[j+3] * z[j+3] / ((d[j+3] - org) - tau)
	}
	return (s0 + s2) + (s1 + s3)
}

// MulRatioDiff performs w[i] *= num[i] / (den[i] - dj) elementwise — one
// panel column's factors of Gu's stabilization product (ComputeLocalW),
// with the pole term i==j carved out by the caller. The three slices must
// have equal length.
func MulRatioDiff(w, num, den []float64, dj float64) {
	n := len(w)
	n4 := n &^ 3
	if n4 > 0 && active {
		mulRatioDiffAVX(w[:n4], num[:n4], den[:n4], dj)
	} else {
		n4 = 0
	}
	for i := n4; i < n; i++ {
		w[i] *= num[i] / (den[i] - dj)
	}
}

// RatioSumSq sets dst[i] = num[i]/den[i] elementwise and returns Σ dst[i]²
// — the fused form-and-sum-of-squares pass of ComputeVect. The caller is
// responsible for guarding against overflow/underflow of the squared sum
// (fall back to a scaled norm when the result is not a normal float).
func RatioSumSq(dst, num, den []float64) (s float64) {
	n := len(dst)
	n4 := n &^ 3
	if n4 > 0 {
		if active {
			s = ratioSumSqAVX(dst[:n4], num[:n4], den[:n4])
		} else {
			s = ratioSumSqGo(dst[:n4], num[:n4], den[:n4])
		}
	}
	for i := n4; i < n; i++ {
		t := num[i] / den[i]
		dst[i] = t
		s += t * t
	}
	return s
}

func ratioSumSqGo(dst, num, den []float64) float64 {
	var s0, s1, s2, s3 float64
	for i := 0; i+3 < len(dst); i += 4 {
		t0 := num[i] / den[i]
		t1 := num[i+1] / den[i+1]
		t2 := num[i+2] / den[i+2]
		t3 := num[i+3] / den[i+3]
		dst[i] = t0
		dst[i+1] = t1
		dst[i+2] = t2
		dst[i+3] = t3
		s0 += t0 * t0
		s1 += t1 * t1
		s2 += t2 * t2
		s3 += t3 * t3
	}
	return (s0 + s2) + (s1 + s3)
}

// MulInto performs dst[i] *= src[i] elementwise — the cross-panel reduction
// of Gu's partial products (ReduceW).
func MulInto(dst, src []float64) {
	n := len(dst)
	n4 := n &^ 3
	if n4 > 0 && active {
		mulIntoAVX(dst[:n4], src[:n4])
	} else {
		n4 = 0
	}
	for i := n4; i < n; i++ {
		dst[i] *= src[i]
	}
}

// NegSqrtSign sets dst[i] = copysign(sqrt(-p[i]), sgn[i]) elementwise — the
// final step of ReduceW, restoring the original secular weight signs onto
// the stabilized magnitudes. dst and p may alias. Unlike the Fortran SIGN
// intrinsic this is bit copysign (sgn is a secular weight and never -0, so
// the distinction is unobservable in the solver).
func NegSqrtSign(dst, p, sgn []float64) {
	n := len(dst)
	n4 := n &^ 3
	if n4 > 0 && active {
		negSqrtSignAVX(dst[:n4], p[:n4], sgn[:n4])
	} else {
		n4 = 0
	}
	for i := n4; i < n; i++ {
		dst[i] = math.Copysign(math.Sqrt(-p[i]), sgn[i])
	}
}

// TridiagResidual accumulates, for one eigenpair (lam, v) of the symmetric
// tridiagonal matrix (d, e), the squared residual norm and the squared
// vector norm in one fused pass:
//
//	r2 = Σ_i (T·v − lam·v)_i²       v2 = Σ_i v_i²
//
// — the per-column work of the always-on result audit (eigen, DESIGN.md
// §18). The boundary rows (no sub-/super-diagonal term) and a short tail
// run here; interior rows run in octs (two quads) in the kernel.
//
// Unlike the secular kernels this one uses FMA: the audit sweep is
// arithmetic-bound (11 FP ops per lane without fusion), and the audit path
// has no VDIVPD to hide the extra instructions behind, so fusing roughly
// halves its cost. The portable fallback mirrors the fused lane expression
// with math.FMA (a single hardware instruction on amd64/arm64), keeping the
// two dispatch paths bitwise identical.
func TridiagResidual(d, e, v []float64, lam float64) (r2, v2 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		s := d[0]*v[0] - lam*v[0]
		return s * s, v[0] * v[0]
	}
	s := d[0]*v[0] + e[0]*v[1] - lam*v[0]
	r2 = s * s
	v2 = v[0] * v[0]
	in := (n - 2) &^ 7
	if in > 0 {
		var ir2, iv2 float64
		if active {
			ir2, iv2 = tridiagResidualAVX(d[1:1+in], e[0:in], e[1:1+in], v[0:in], v[1:1+in], v[2:2+in], lam)
		} else {
			ir2, iv2 = tridiagResidualGo(d[1:1+in], e[0:in], e[1:1+in], v[0:in], v[1:1+in], v[2:2+in], lam)
		}
		r2 += ir2
		v2 += iv2
	}
	for i := 1 + in; i < n-1; i++ {
		s := ((d[i]*v[i] + e[i-1]*v[i-1]) + e[i]*v[i+1]) - lam*v[i]
		r2 += s * s
		v2 += v[i] * v[i]
	}
	s = d[n-1]*v[n-1] + e[n-2]*v[n-2] - lam*v[n-1]
	r2 += s * s
	v2 += v[n-1] * v[n-1]
	return r2, v2
}

// tridiagResidualGo is the portable interior-row kernel: all six slices have
// the same 8-aligned length, lane j covering interior row i = base+j with
// dd=d[i], em=e[i-1], ep=e[i], vm=v[i-1], vv=v[i], vp=v[i+1]. The fused
// lane expression, the two accumulator sets (one per quad of the oct), and
// the A_l+B_l then (l0+l2)+(l1+l3) reduction mirror the assembly exactly.
func tridiagResidualGo(dd, em, ep, vm, vv, vp []float64, lam float64) (r2, v2 float64) {
	nlam := -lam
	var ra, rb, na, nb [4]float64
	for j := 0; j+7 < len(vv); j += 8 {
		for l := 0; l < 4; l++ {
			i := j + l
			s := dd[i] * vv[i]
			s = math.FMA(em[i], vm[i], s)
			s = math.FMA(ep[i], vp[i], s)
			s = math.FMA(nlam, vv[i], s)
			ra[l] = math.FMA(s, s, ra[l])
			na[l] = math.FMA(vv[i], vv[i], na[l])
		}
		for l := 0; l < 4; l++ {
			i := j + 4 + l
			s := dd[i] * vv[i]
			s = math.FMA(em[i], vm[i], s)
			s = math.FMA(ep[i], vp[i], s)
			s = math.FMA(nlam, vv[i], s)
			rb[l] = math.FMA(s, s, rb[l])
			nb[l] = math.FMA(vv[i], vv[i], nb[l])
		}
	}
	r0, r1, r2l, r3 := ra[0]+rb[0], ra[1]+rb[1], ra[2]+rb[2], ra[3]+rb[3]
	n0, n1, n2, n3 := na[0]+nb[0], na[1]+nb[1], na[2]+nb[2], na[3]+nb[3]
	return (r0 + r2l) + (r1 + r3), (n0 + n2) + (n1 + n3)
}

// DotPairAbs accumulates the two dot products of one ABFT checksum
// verification (internal/blas, DESIGN.md §18) in a single pass:
//
//	dot = Σ x[j]·y[j]        absdot = Σ ax[j]·|y[j]|
//
// with x the checksum row, ax the absolute checksum row and y the streamed
// B column. Lane-ordered accumulation; bitwise identical with and without
// assembly.
func DotPairAbs(x, ax, y []float64) (dot, absdot float64) {
	n := len(y)
	n4 := n &^ 3
	if n4 > 0 {
		if active {
			dot, absdot = dotPairAbsAVX(x[:n4], ax[:n4], y[:n4])
		} else {
			dot, absdot = dotPairAbsGo(x[:n4], ax[:n4], y[:n4])
		}
	}
	for j := n4; j < n; j++ {
		dot += x[j] * y[j]
		absdot += ax[j] * math.Abs(y[j])
	}
	return dot, absdot
}

func dotPairAbsGo(x, ax, y []float64) (dot, absdot float64) {
	var d0, d1, d2, d3, a0, a1, a2, a3 float64
	for j := 0; j+3 < len(y); j += 4 {
		d0 += x[j] * y[j]
		d1 += x[j+1] * y[j+1]
		d2 += x[j+2] * y[j+2]
		d3 += x[j+3] * y[j+3]
		a0 += ax[j] * math.Abs(y[j])
		a1 += ax[j+1] * math.Abs(y[j+1])
		a2 += ax[j+2] * math.Abs(y[j+2])
		a3 += ax[j+3] * math.Abs(y[j+3])
	}
	return (d0 + d2) + (d1 + d3), (a0 + a2) + (a1 + a3)
}

// Sum returns Σ x[j] with lane-ordered accumulation — the output-column
// summation of the ABFT checksum verification. Bitwise identical with and
// without assembly.
func Sum(x []float64) (s float64) {
	n := len(x)
	n4 := n &^ 3
	if n4 > 0 {
		if active {
			s = sumAVX(x[:n4])
		} else {
			s = sumGo(x[:n4])
		}
	}
	for j := n4; j < n; j++ {
		s += x[j]
	}
	return s
}

func sumGo(x []float64) float64 {
	var s0, s1, s2, s3 float64
	for j := 0; j+3 < len(x); j += 4 {
		s0 += x[j]
		s1 += x[j+1]
		s2 += x[j+2]
		s3 += x[j+3]
	}
	return (s0 + s2) + (s1 + s3)
}
