#include "textflag.h"

// func ukernel24x8avx512(kc int, ap, bp []float64, c []float64, ldc, mr, nr int, alpha float64)
//
// The AVX-512 register micro-kernel of the blocked GEMM: a 24×8 tile of C
// accumulates in Z0-Z23 (column j in Z(3j), Z(3j+1), Z(3j+2)) across the
// whole kc depth. Each k step loads the packed A micro-panel's 24 values
// into Z24-Z26, broadcasts the packed B micro-panel's 8 values and issues
// 24 FMAs. Then C(0:mr, j) += alpha * acc_j for j < nr, with rows masked by
// K1-K3 (the three bytes of the mr-bit mask) on both the C load and the
// store, so edge tiles never touch C outside the valid region. Every C
// element accumulates a·b over k in order with FMA and ends with
// c = fma(alpha, acc, c), the same arithmetic as ukernel8x4avx.
TEXT ·ukernel24x8avx512(SB), NOSPLIT, $0-112
	MOVQ mr+88(FP), CX
	MOVL $1, AX
	SHLQ CX, AX
	DECQ AX                 // rows mask: bit r set for r < mr
	KMOVW AX, K1
	SHRQ $8, AX
	KMOVW AX, K2
	SHRQ $8, AX
	KMOVW AX, K3
	MOVQ kc+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ c_base+56(FP), DX
	MOVQ ldc+80(FP), R8
	SHLQ $3, R8             // column stride in bytes
	MOVQ nr+96(FP), R9
	// Prefetch the C tile (up to four lines per column) so its misses
	// overlap the k loop instead of stalling the final update.
	MOVQ DX, R10
	MOVQ R9, R11
prefetch:
	PREFETCHT0 (R10)
	PREFETCHT0 64(R10)
	PREFETCHT0 128(R10)
	PREFETCHT0 191(R10)
	ADDQ R8, R10
	DECQ R11
	JNZ  prefetch
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
loop:
	VMOVUPD (SI), Z24        // a[0:8] of this k step
	VMOVUPD 64(SI), Z25      // a[8:16]
	VMOVUPD 128(SI), Z26     // a[16:24]
	VBROADCASTSD (DI), Z27   // b[0]
	VBROADCASTSD 8(DI), Z28 // b[1]
	VFMADD231PD Z24, Z27, Z0
	VFMADD231PD Z25, Z27, Z1
	VFMADD231PD Z26, Z27, Z2
	VFMADD231PD Z24, Z28, Z3
	VFMADD231PD Z25, Z28, Z4
	VFMADD231PD Z26, Z28, Z5
	VBROADCASTSD 16(DI), Z29 // b[2]
	VBROADCASTSD 24(DI), Z30 // b[3]
	VFMADD231PD Z24, Z29, Z6
	VFMADD231PD Z25, Z29, Z7
	VFMADD231PD Z26, Z29, Z8
	VFMADD231PD Z24, Z30, Z9
	VFMADD231PD Z25, Z30, Z10
	VFMADD231PD Z26, Z30, Z11
	VBROADCASTSD 32(DI), Z27 // b[4]
	VBROADCASTSD 40(DI), Z28 // b[5]
	VFMADD231PD Z24, Z27, Z12
	VFMADD231PD Z25, Z27, Z13
	VFMADD231PD Z26, Z27, Z14
	VFMADD231PD Z24, Z28, Z15
	VFMADD231PD Z25, Z28, Z16
	VFMADD231PD Z26, Z28, Z17
	VBROADCASTSD 48(DI), Z29 // b[6]
	VBROADCASTSD 56(DI), Z30 // b[7]
	VFMADD231PD Z24, Z29, Z18
	VFMADD231PD Z25, Z29, Z19
	VFMADD231PD Z26, Z29, Z20
	VFMADD231PD Z24, Z30, Z21
	VFMADD231PD Z25, Z30, Z22
	VFMADD231PD Z26, Z30, Z23
	ADDQ $192, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop

	VBROADCASTSD alpha+104(FP), Z31
	// column 0
	VMOVUPD.Z (DX), K1, Z24
	VMOVUPD.Z 64(DX), K2, Z25
	VMOVUPD.Z 128(DX), K3, Z26
	VFMADD231PD Z0, Z31, Z24
	VFMADD231PD Z1, Z31, Z25
	VFMADD231PD Z2, Z31, Z26
	VMOVUPD Z24, K1, (DX)
	VMOVUPD Z25, K2, 64(DX)
	VMOVUPD Z26, K3, 128(DX)
	DECQ R9
	JZ   done
	ADDQ R8, DX
	// column 1
	VMOVUPD.Z (DX), K1, Z24
	VMOVUPD.Z 64(DX), K2, Z25
	VMOVUPD.Z 128(DX), K3, Z26
	VFMADD231PD Z3, Z31, Z24
	VFMADD231PD Z4, Z31, Z25
	VFMADD231PD Z5, Z31, Z26
	VMOVUPD Z24, K1, (DX)
	VMOVUPD Z25, K2, 64(DX)
	VMOVUPD Z26, K3, 128(DX)
	DECQ R9
	JZ   done
	ADDQ R8, DX
	// column 2
	VMOVUPD.Z (DX), K1, Z24
	VMOVUPD.Z 64(DX), K2, Z25
	VMOVUPD.Z 128(DX), K3, Z26
	VFMADD231PD Z6, Z31, Z24
	VFMADD231PD Z7, Z31, Z25
	VFMADD231PD Z8, Z31, Z26
	VMOVUPD Z24, K1, (DX)
	VMOVUPD Z25, K2, 64(DX)
	VMOVUPD Z26, K3, 128(DX)
	DECQ R9
	JZ   done
	ADDQ R8, DX
	// column 3
	VMOVUPD.Z (DX), K1, Z24
	VMOVUPD.Z 64(DX), K2, Z25
	VMOVUPD.Z 128(DX), K3, Z26
	VFMADD231PD Z9, Z31, Z24
	VFMADD231PD Z10, Z31, Z25
	VFMADD231PD Z11, Z31, Z26
	VMOVUPD Z24, K1, (DX)
	VMOVUPD Z25, K2, 64(DX)
	VMOVUPD Z26, K3, 128(DX)
	DECQ R9
	JZ   done
	ADDQ R8, DX
	// column 4
	VMOVUPD.Z (DX), K1, Z24
	VMOVUPD.Z 64(DX), K2, Z25
	VMOVUPD.Z 128(DX), K3, Z26
	VFMADD231PD Z12, Z31, Z24
	VFMADD231PD Z13, Z31, Z25
	VFMADD231PD Z14, Z31, Z26
	VMOVUPD Z24, K1, (DX)
	VMOVUPD Z25, K2, 64(DX)
	VMOVUPD Z26, K3, 128(DX)
	DECQ R9
	JZ   done
	ADDQ R8, DX
	// column 5
	VMOVUPD.Z (DX), K1, Z24
	VMOVUPD.Z 64(DX), K2, Z25
	VMOVUPD.Z 128(DX), K3, Z26
	VFMADD231PD Z15, Z31, Z24
	VFMADD231PD Z16, Z31, Z25
	VFMADD231PD Z17, Z31, Z26
	VMOVUPD Z24, K1, (DX)
	VMOVUPD Z25, K2, 64(DX)
	VMOVUPD Z26, K3, 128(DX)
	DECQ R9
	JZ   done
	ADDQ R8, DX
	// column 6
	VMOVUPD.Z (DX), K1, Z24
	VMOVUPD.Z 64(DX), K2, Z25
	VMOVUPD.Z 128(DX), K3, Z26
	VFMADD231PD Z18, Z31, Z24
	VFMADD231PD Z19, Z31, Z25
	VFMADD231PD Z20, Z31, Z26
	VMOVUPD Z24, K1, (DX)
	VMOVUPD Z25, K2, 64(DX)
	VMOVUPD Z26, K3, 128(DX)
	DECQ R9
	JZ   done
	ADDQ R8, DX
	// column 7
	VMOVUPD.Z (DX), K1, Z24
	VMOVUPD.Z 64(DX), K2, Z25
	VMOVUPD.Z 128(DX), K3, Z26
	VFMADD231PD Z21, Z31, Z24
	VFMADD231PD Z22, Z31, Z25
	VFMADD231PD Z23, Z31, Z26
	VMOVUPD Z24, K1, (DX)
	VMOVUPD Z25, K2, 64(DX)
	VMOVUPD Z26, K3, 128(DX)
done:
	VZEROUPPER
	RET

// func ukernel8x4avx(kc int, ap, bp []float64, c []float64, ldc int, alpha float64)
//
// The register micro-kernel of the blocked GEMM: an 8×4 tile of C
// accumulates in eight ymm registers across the whole kc depth, reading the
// packed A micro-panel (8 values per k step, contiguous) and the packed B
// micro-panel (4 values per k step, contiguous), then C(0:8, 0:4) +=
// alpha * acc with column stride ldc (in elements). kc must be >= 1 and the
// packed panels fully populated (zero padded at the edges by the packers).
TEXT ·ukernel8x4avx(SB), NOSPLIT, $0-96
	MOVQ kc+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ c_base+56(FP), DX
	MOVQ ldc+80(FP), R8
	SHLQ $3, R8             // column stride in bytes
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
loop:
	VMOVUPD (SI), Y8        // a[0:4] of this k step
	VMOVUPD 32(SI), Y9      // a[4:8]
	VBROADCASTSD (DI), Y10  // b[0]
	VBROADCASTSD 8(DI), Y11 // b[1]
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VBROADCASTSD 16(DI), Y10 // b[2]
	VBROADCASTSD 24(DI), Y11 // b[3]
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5
	VFMADD231PD Y8, Y11, Y6
	VFMADD231PD Y9, Y11, Y7
	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	// C(0:8, j) += alpha * acc_j, one column at a time.
	VBROADCASTSD alpha+88(FP), Y10
	VMOVUPD (DX), Y11
	VMOVUPD 32(DX), Y12
	VFMADD231PD Y0, Y10, Y11
	VFMADD231PD Y1, Y10, Y12
	VMOVUPD Y11, (DX)
	VMOVUPD Y12, 32(DX)
	ADDQ R8, DX
	VMOVUPD (DX), Y11
	VMOVUPD 32(DX), Y12
	VFMADD231PD Y2, Y10, Y11
	VFMADD231PD Y3, Y10, Y12
	VMOVUPD Y11, (DX)
	VMOVUPD Y12, 32(DX)
	ADDQ R8, DX
	VMOVUPD (DX), Y11
	VMOVUPD 32(DX), Y12
	VFMADD231PD Y4, Y10, Y11
	VFMADD231PD Y5, Y10, Y12
	VMOVUPD Y11, (DX)
	VMOVUPD Y12, 32(DX)
	ADDQ R8, DX
	VMOVUPD (DX), Y11
	VMOVUPD 32(DX), Y12
	VFMADD231PD Y6, Y10, Y11
	VFMADD231PD Y7, Y10, Y12
	VMOVUPD Y11, (DX)
	VMOVUPD Y12, 32(DX)
	VZEROUPPER
	RET
