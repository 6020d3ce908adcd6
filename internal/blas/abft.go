package blas

import (
	"fmt"
	"math"

	"tridiag/internal/simd"
)

// Algorithm-based fault tolerance for the packed GEMM path (DESIGN.md §18).
//
// PackAChecked appends two checksum rows to the packed operand: the plain
// column sums e_l = Σ_i A[i,l] and the absolute column sums ê_l = Σ_i |A[i,l]|.
// After a C = alpha·A·B panel multiply, each output column j must satisfy
//
//	Σ_i C[i,j] ≈ alpha · Σ_l e_l · B[l,j]
//
// to within the rounding-error bound derived from the absolute sums, so a
// single flipped bit anywhere in the multiply's data path (packed A, streamed
// B, or the written C panel) breaks the identity. Verification costs
// O(m·n + k·n) against the multiply's O(m·n·k) work.

// abftTolFactor scales the rounding-error bound of the checksum identity.
// The summation chains on the two sides have length k and m respectively, so
// the defect of an uncorrupted multiply is bounded by ~(k+m)·eps times the
// absolute-value mass of the column; the factor covers the constant and the
// FMA/reassociation slack of the blocked kernels. Calibrated against the
// pathological suite (Wilkinson, glued, ×1e±300, clustered): zero false
// positives with the factor at 8; a bit 57 exponent flip overshoots the
// bound by ~2^32.
const abftTolFactor = 8.0

// ChecksumError reports a failed ABFT checksum verification: the computed
// column sum of one output panel column disagrees with the checksum-row
// prediction beyond the rounding bound. It is classified as a transient
// corruption so the task-retry and server-retry ladders recompute instead of
// degrading tiers on what is almost certainly a one-off bit flip.
type ChecksumError struct {
	Col    int     // output column (within the verified panel)
	Got    float64 // Σ_i C[i,j]
	Want   float64 // checksum-row prediction
	Bound  float64 // rounding-error tolerance that was exceeded
	Kernel string  // task class attribution ("UpdateVect")
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("blas: ABFT checksum mismatch in %s output column %d: sum %.17g, checksum predicts %.17g (tolerance %.3g)",
		e.Kernel, e.Col, e.Got, e.Want, e.Bound)
}

// Corruption marks the failure as detected silent data corruption.
func (e *ChecksumError) Corruption() bool { return true }

// Transient reports true: a recompute of the same panel is expected to clear
// a bit flip.
func (e *ChecksumError) Transient() bool { return true }

// TaskClass attributes the corruption to the kernel class whose output
// failed verification, for circuit breakers and failure accounting.
func (e *ChecksumError) TaskClass() string { return e.Kernel }

// PackAChecked is PackA plus the ABFT checksum rows: chk[l] = Σ_i op(A)[i,l]
// and abschk[l] = Σ_i |op(A)[i,l]|, accumulated in the pack pass itself as
// each value is copied (rows in ascending order, O(m·k) like the copy) and
// carried by the PackedA for every subsequent Verify call.
func PackAChecked(transA bool, m, k int, a []float64, lda int) *PackedA {
	return packA(transA, m, k, a, lda, true)
}

// Checked reports whether the operand carries ABFT checksum rows.
func (pa *PackedA) Checked() bool { return pa.chk != nil }

// PackedData exposes the packed operand's backing buffer so fault-injection
// hooks can corrupt it after the checksum rows were computed — proving Verify
// catches corruption of the packed data itself, not just of the GEMM output.
// No other caller should touch it.
func (pa *PackedA) PackedData() []float64 { return pa.buf }

// Verify checks the ABFT checksum identity for the n columns of C written by
// PackedGemm(pa, n, alpha, b, ldb, 0, c, ldc) — the beta=0 full-overwrite
// form the UpdateVect panels use. Returns the first failing column as a
// *ChecksumError (attributed to kernel), or nil when every column is within
// the rounding bound. Callers must have built the operand with PackAChecked;
// Verify on an unchecked operand returns nil (nothing to verify against).
func (pa *PackedA) Verify(n int, alpha float64, b []float64, ldb int, c []float64, ldc int, kernel string) error {
	if pa.chk == nil {
		return nil
	}
	m, k := pa.m, pa.k
	if m == 0 || n == 0 {
		return nil
	}
	chk, abschk := pa.chk[:k], pa.chk[k:2*k]
	for j := 0; j < n; j++ {
		want, mass := simd.DotPairAbs(chk, abschk, b[j*ldb:j*ldb+k])
		want *= alpha
		mass *= math.Abs(alpha)
		got := simd.Sum(c[j*ldc : j*ldc+m])
		bound := abftTolFactor * float64(k+m) * machEps * mass
		if diff := math.Abs(got - want); diff > bound {
			return &ChecksumError{Col: j, Got: got, Want: want, Bound: bound, Kernel: kernel}
		}
	}
	return nil
}

// machEps is the double-precision unit roundoff.
const machEps = 0x1p-53
