#include "go_asm.h"
#include "textflag.h"

// The AVX2 kernels. Each computes, per 64-bit lane, exactly the Go
// kernel's expression (kernels.go): one VMULPD and one VADDPD where Go
// rounds a product and a sum, never a fused multiply-add, and in every
// instruction the left operand of the Go expression is the first source.
// Go-syntax operand order is reversed: VOP src2, src1, dst.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func forward4AVX2(p, x4, out4 []float64, relu bool)
//
// Four samples, one per lane: for each block of four output rows the
// accumulators start at the broadcast biases and add the broadcast weight
// times the four samples' input, in ascending input index. ReLU is a
// compare-and-mask, s < 0 (ordered, so NaN is false) → 0, which leaves
// NaN and -0 as Go's `if s < 0 { s = 0 }` leaves them.
TEXT ·forward4AVX2(SB), NOSPLIT, $0-73
	MOVQ p_base+0(FP), SI        // SI: row 0 of the block
	MOVQ x4_base+24(FP), DX
	MOVQ x4_len+32(FP), R9
	SHRQ $2, R9                  // n
	MOVQ out4_base+48(FP), DI    // DI: the block's four output rows
	MOVQ out4_len+56(FP), BX
	SHRQ $2, BX                  // out
	MOVQ BX, R8
	IMULQ R9, R8
	LEAQ (SI)(R8*8), R8          // R8: the block's biases
	ANDQ $-4, BX
	SHLQ $5, BX
	ADDQ DI, BX                  // BX: end of the rows taken in blocks
	SHLQ $3, R9                  // R9: row stride in bytes
	MOVBQZX relu+72(FP), CX
	VXORPD Y15, Y15, Y15
	CMPQ DI, BX
	JAE fdone

fblock:
	VBROADCASTSD (R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	VBROADCASTSD 24(R8), Y3
	LEAQ (SI)(R9*1), R12         // row 1
	LEAQ (SI)(R9*2), R13         // row 2
	LEAQ (R12)(R9*2), AX         // row 3
	MOVQ DX, R11                 // x4[4i]
	XORQ R10, R10                // 8i
	TESTQ R9, R9
	JZ frelu

finner:
	VMOVUPD (R11), Y4
	VBROADCASTSD (SI)(R10*1), Y5
	VBROADCASTSD (R12)(R10*1), Y6
	VBROADCASTSD (R13)(R10*1), Y7
	VBROADCASTSD (AX)(R10*1), Y8
	VMULPD Y4, Y5, Y5            // w[o][i] * x[i]
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0            // s + w[o][i]*x[i]
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $32, R11
	ADDQ $8, R10
	CMPQ R10, R9
	JB finner

frelu:
	TESTQ CX, CX
	JZ fstore
	VCMPPD $0x11, Y15, Y0, Y9    // s < 0, LT_OQ
	VCMPPD $0x11, Y15, Y1, Y10
	VCMPPD $0x11, Y15, Y2, Y11
	VCMPPD $0x11, Y15, Y3, Y12
	VANDNPD Y0, Y9, Y0           // ¬(s < 0) & s
	VANDNPD Y1, Y10, Y1
	VANDNPD Y2, Y11, Y2
	VANDNPD Y3, Y12, Y3

fstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $32, R8
	LEAQ (SI)(R9*4), SI
	CMPQ DI, BX
	JB fblock

fdone:
	VZEROUPPER
	RET

// func backwardAVX2(p, g, x, d, prev []float64)
//
// One sample, four neighbouring columns per instruction: for each row
// o with d[o] != 0 (tested on the bits, so ±0 skip and NaN does not), in
// ascending o, the bias cell gets d[o] and the columns below n &^ 3 get
// g[o][i] += d[o]*x[i] and prev[i] += d[o]*w[o][i]. Each cell is its own
// sum, folded in the Go kernel's order.
TEXT ·backwardAVX2(SB), NOSPLIT, $0-120
	MOVQ p_base+0(FP), SI        // SI: weight row o
	MOVQ g_base+24(FP), DI       // DI: gradient row o
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), R12
	MOVQ d_base+72(FP), R8
	MOVQ d_len+80(FP), BX
	MOVQ prev_base+96(FP), R9
	MOVQ prev_len+104(FP), R10
	MOVQ BX, R11
	IMULQ R12, R11
	LEAQ (DI)(R11*8), R11        // R11: bias cells
	MOVQ R12, R13
	ANDQ $-4, R13
	SHLQ $3, R13                 // R13: bytes of the columns taken in fours
	SHLQ $3, R12                 // R12: row stride in bytes
	XORQ AX, AX                  // o

brow:
	CMPQ AX, BX
	JAE bdone
	MOVQ (R8)(AX*8), CX
	SHLQ $1, CX                  // drop the sign: ±0 → 0
	JZ bnext
	VMOVSD (R8)(AX*8), X0
	VMOVSD (R11)(AX*8), X1
	VADDSD X0, X1, X1            // gb[o] + d[o]
	VMOVSD X1, (R11)(AX*8)
	VBROADCASTSD (R8)(AX*8), Y0
	XORQ CX, CX                  // 8i
	TESTQ R10, R10
	JZ bgrad

bboth:
	CMPQ CX, R13
	JAE bnext
	VMOVUPD (DX)(CX*1), Y1
	VMULPD Y1, Y0, Y1            // d[o] * x[i]
	VMOVUPD (DI)(CX*1), Y2
	VADDPD Y1, Y2, Y2            // g[o][i] + d[o]*x[i]
	VMOVUPD Y2, (DI)(CX*1)
	VMOVUPD (SI)(CX*1), Y3
	VMULPD Y3, Y0, Y3            // d[o] * w[o][i]
	VMOVUPD (R9)(CX*1), Y4
	VADDPD Y3, Y4, Y4            // prev[i] + d[o]*w[o][i]
	VMOVUPD Y4, (R9)(CX*1)
	ADDQ $32, CX
	JMP bboth

bgrad:
	CMPQ CX, R13
	JAE bnext
	VMOVUPD (DX)(CX*1), Y1
	VMULPD Y1, Y0, Y1
	VMOVUPD (DI)(CX*1), Y2
	VADDPD Y1, Y2, Y2
	VMOVUPD Y2, (DI)(CX*1)
	ADDQ $32, CX
	JMP bgrad

bnext:
	INCQ AX
	ADDQ R12, SI
	ADDQ R12, DI
	JMP brow

bdone:
	VZEROUPPER
	RET

// func adamAVX2(theta, mom, vel, grad []float64, k *adamConsts)
//
// Four parameters per instruction, each through adam's expression tree:
// mi = beta1*m + c1*g; vi = beta2*v + (c2*g)*g;
// theta -= (lr*(mi/bc1)) / (sqrt(vi/bc2) + eps).
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ theta_base+0(FP), DI
	MOVQ theta_len+8(FP), CX
	MOVQ mom_base+24(FP), SI
	MOVQ vel_base+48(FP), DX
	MOVQ grad_base+72(FP), BX
	MOVQ k+96(FP), AX
	ANDQ $-4, CX
	SHLQ $3, CX                  // CX: bytes of the cells taken in fours
	VBROADCASTSD adamConsts_beta1(AX), Y8
	VBROADCASTSD adamConsts_c1(AX), Y9
	VBROADCASTSD adamConsts_beta2(AX), Y10
	VBROADCASTSD adamConsts_c2(AX), Y11
	VBROADCASTSD adamConsts_lr(AX), Y12
	VBROADCASTSD adamConsts_bc1(AX), Y13
	VBROADCASTSD adamConsts_bc2(AX), Y14
	VBROADCASTSD adamConsts_eps(AX), Y15
	XORQ R8, R8

aloop:
	CMPQ R8, CX
	JAE adone
	VMOVUPD (BX)(R8*1), Y0       // g
	VMULPD (SI)(R8*1), Y8, Y1    // beta1 * m
	VMULPD Y0, Y9, Y2            // c1 * g
	VADDPD Y2, Y1, Y1            // mi
	VMULPD (DX)(R8*1), Y10, Y3   // beta2 * v
	VMULPD Y0, Y11, Y4           // c2 * g
	VMULPD Y0, Y4, Y4            // c2*g * g
	VADDPD Y4, Y3, Y3            // vi
	VMOVUPD Y1, (SI)(R8*1)
	VMOVUPD Y3, (DX)(R8*1)
	VDIVPD Y13, Y1, Y1           // mi / bc1
	VMULPD Y1, Y12, Y1           // lr * (mi/bc1)
	VDIVPD Y14, Y3, Y3           // vi / bc2
	VSQRTPD Y3, Y3
	VADDPD Y15, Y3, Y3           // sqrt(vi/bc2) + eps
	VDIVPD Y3, Y1, Y1
	VMOVUPD (DI)(R8*1), Y5
	VSUBPD Y1, Y5, Y5            // theta - step
	VMOVUPD Y5, (DI)(R8*1)
	ADDQ $32, R8
	JMP aloop

adone:
	VZEROUPPER
	RET
