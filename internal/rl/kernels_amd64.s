#include "go_asm.h"
#include "textflag.h"

// The AVX2 and AVX-512F kernels. Each computes, per 64-bit lane, exactly
// the Go kernel's expression (kernels.go): one VMULPD and one VADDPD where Go
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

// The AVX-512F kernels: the AVX2 kernels' contract, eight lanes per
// instruction. Masks come from ordered compares into K registers and act
// through masked moves and masked loads and stores, all AVX-512F; no
// instruction needs DQ, BW or VL (Z15 is zeroed with VPXORQ, not VXORPD).
// backwardAVX512 counts mask bits with POPCNT, which bestPath checks.

// func forward8AVX512(p, x8, out8 []float64, relu bool)
//
// Eight samples, one per lane, every output row: blocks of eight rows,
// eight add chains in flight, then a block of four as forward4AVX2 takes
// them, then the rows left over one at a time. ReLU is
// an ordered s < 0 compare into a mask register and a masked move of zero,
// which leaves NaN and -0 as Go does.
TEXT ·forward8AVX512(SB), NOSPLIT, $32-73
	MOVQ p_base+0(FP), SI        // SI: row 0 of the block
	MOVQ x8_base+24(FP), DX
	MOVQ x8_len+32(FP), R9
	SHRQ $3, R9                  // n
	MOVQ out8_base+48(FP), DI    // DI: the block's output rows
	MOVQ out8_len+56(FP), BX
	SHRQ $3, BX                  // out
	MOVQ BX, R8
	IMULQ R9, R8
	LEAQ (SI)(R8*8), R8          // R8: the block's biases
	MOVQ BX, CX
	ANDQ $-4, CX
	SHLQ $6, CX
	ADDQ DI, CX                  // CX: end of the rows taken in blocks
	SHLQ $6, BX
	ADDQ DI, BX                  // BX: end of every row
	SHLQ $3, R9                  // R9: row stride in bytes
	VPXORQ Z15, Z15, Z15
	MOVQ CX, 8(SP)
	MOVQ BX, 16(SP)
	MOVQ out8_len+56(FP), AX
	ANDQ $-64, AX
	SHLQ $3, AX
	ADDQ DI, AX
	MOVQ AX, 0(SP)               // 0(SP): end of the rows taken in eights

f8eight:
	CMPQ DI, 0(SP)
	JAE f8four
	VBROADCASTSD (R8), Z0
	VBROADCASTSD 8(R8), Z1
	VBROADCASTSD 16(R8), Z2
	VBROADCASTSD 24(R8), Z3
	VBROADCASTSD 32(R8), Z4
	VBROADCASTSD 40(R8), Z5
	VBROADCASTSD 48(R8), Z6
	VBROADCASTSD 56(R8), Z7
	MOVQ R8, 24(SP)
	LEAQ (SI)(R9*1), R12         // rows 1–7
	LEAQ (SI)(R9*2), R13
	LEAQ (R12)(R9*2), AX
	LEAQ (SI)(R9*4), BX
	LEAQ (BX)(R9*1), CX
	LEAQ (BX)(R9*2), R15
	LEAQ (CX)(R9*2), R8
	MOVQ DX, R11
	XORQ R10, R10
	JMP f8econd

f8einner:
	VMOVUPD (R11), Z8
	VBROADCASTSD (SI)(R10*1), Z9
	VBROADCASTSD (R12)(R10*1), Z10
	VBROADCASTSD (R13)(R10*1), Z11
	VBROADCASTSD (AX)(R10*1), Z12
	VBROADCASTSD (BX)(R10*1), Z13
	VBROADCASTSD (CX)(R10*1), Z14
	VBROADCASTSD (R15)(R10*1), Z16
	VBROADCASTSD (R8)(R10*1), Z17
	VMULPD Z8, Z9, Z9            // w[o][i] * x[i]
	VMULPD Z8, Z10, Z10
	VMULPD Z8, Z11, Z11
	VMULPD Z8, Z12, Z12
	VMULPD Z8, Z13, Z13
	VMULPD Z8, Z14, Z14
	VMULPD Z8, Z16, Z16
	VMULPD Z8, Z17, Z17
	VADDPD Z9, Z0, Z0            // s + w[o][i]*x[i]
	VADDPD Z10, Z1, Z1
	VADDPD Z11, Z2, Z2
	VADDPD Z12, Z3, Z3
	VADDPD Z13, Z4, Z4
	VADDPD Z14, Z5, Z5
	VADDPD Z16, Z6, Z6
	VADDPD Z17, Z7, Z7
	ADDQ $64, R11
	ADDQ $8, R10

f8econd:
	CMPQ R10, R9
	JB f8einner
	CMPB relu+72(FP), $0
	JEQ f8estore
	VCMPPD $0x11, Z15, Z0, K1    // s < 0, LT_OQ
	VCMPPD $0x11, Z15, Z1, K2
	VCMPPD $0x11, Z15, Z2, K3
	VCMPPD $0x11, Z15, Z3, K4
	VMOVAPD Z15, K1, Z0          // s = 0 where s < 0
	VMOVAPD Z15, K2, Z1
	VMOVAPD Z15, K3, Z2
	VMOVAPD Z15, K4, Z3
	VCMPPD $0x11, Z15, Z4, K1
	VCMPPD $0x11, Z15, Z5, K2
	VCMPPD $0x11, Z15, Z6, K3
	VCMPPD $0x11, Z15, Z7, K4
	VMOVAPD Z15, K1, Z4
	VMOVAPD Z15, K2, Z5
	VMOVAPD Z15, K3, Z6
	VMOVAPD Z15, K4, Z7

f8estore:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	ADDQ $512, DI
	MOVQ 24(SP), R8
	ADDQ $64, R8
	LEAQ (SI)(R9*8), SI
	JMP f8eight

f8four:
	MOVQ 8(SP), CX
	MOVQ 16(SP), BX

f8block:
	CMPQ DI, CX
	JAE f8row
	VBROADCASTSD (R8), Z0
	VBROADCASTSD 8(R8), Z1
	VBROADCASTSD 16(R8), Z2
	VBROADCASTSD 24(R8), Z3
	LEAQ (SI)(R9*1), R12         // row 1
	LEAQ (SI)(R9*2), R13         // row 2
	LEAQ (R12)(R9*2), AX         // row 3
	MOVQ DX, R11                 // x8[8i]
	XORQ R10, R10                // 8i

f8inner:
	CMPQ R10, R9
	JAE f8relu
	VMOVUPD (R11), Z4
	VBROADCASTSD (SI)(R10*1), Z5
	VBROADCASTSD (R12)(R10*1), Z6
	VBROADCASTSD (R13)(R10*1), Z7
	VBROADCASTSD (AX)(R10*1), Z8
	VMULPD Z4, Z5, Z5            // w[o][i] * x[i]
	VMULPD Z4, Z6, Z6
	VMULPD Z4, Z7, Z7
	VMULPD Z4, Z8, Z8
	VADDPD Z5, Z0, Z0            // s + w[o][i]*x[i]
	VADDPD Z6, Z1, Z1
	VADDPD Z7, Z2, Z2
	VADDPD Z8, Z3, Z3
	ADDQ $64, R11
	ADDQ $8, R10
	JMP f8inner

f8relu:
	CMPB relu+72(FP), $0
	JEQ f8store
	VCMPPD $0x11, Z15, Z0, K1    // s < 0, LT_OQ
	VCMPPD $0x11, Z15, Z1, K2
	VCMPPD $0x11, Z15, Z2, K3
	VCMPPD $0x11, Z15, Z3, K4
	VMOVAPD Z15, K1, Z0          // s = 0 where s < 0
	VMOVAPD Z15, K2, Z1
	VMOVAPD Z15, K3, Z2
	VMOVAPD Z15, K4, Z3

f8store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ $256, DI
	ADDQ $32, R8
	LEAQ (SI)(R9*4), SI
	JMP f8block

f8row:
	CMPQ DI, BX
	JAE f8done
	VBROADCASTSD (R8), Z0
	MOVQ DX, R11
	XORQ R10, R10

f8rowinner:
	CMPQ R10, R9
	JAE f8rowrelu
	VMOVUPD (R11), Z4
	VBROADCASTSD (SI)(R10*1), Z5
	VMULPD Z4, Z5, Z5
	VADDPD Z5, Z0, Z0
	ADDQ $64, R11
	ADDQ $8, R10
	JMP f8rowinner

f8rowrelu:
	CMPB relu+72(FP), $0
	JEQ f8rowstore
	VCMPPD $0x11, Z15, Z0, K1
	VMOVAPD Z15, K1, Z0

f8rowstore:
	VMOVUPD Z0, (DI)
	ADDQ $64, DI
	ADDQ $8, R8
	ADDQ R9, SI
	JMP f8row

f8done:
	VZEROUPPER
	RET

// func argmax8AVX512(q8 []float64, best []int)
//
// Argmax for eight samples interleaved, output o of sample s at q8[8o+s]:
// per lane, the running best starts at output 0 and moves to output o
// where q8[8o+s] > best (GT_OQ, so NaN neither wins nor is beaten),
// keeping the first of equal values.
TEXT ·argmax8AVX512(SB), NOSPLIT, $0-48
	MOVQ q8_base+0(FP), SI
	MOVQ q8_len+8(FP), CX
	SHLQ $3, CX                  // CX: bytes of q8
	MOVQ best_base+24(FP), DI
	VMOVUPD (SI), Z0             // Z0: each lane's best value
	VPXORQ Z1, Z1, Z1            // Z1: its output
	VPXORQ Z2, Z2, Z2            // Z2: o
	MOVQ $1, AX
	VPBROADCASTQ AX, Z3
	MOVQ $64, DX

a8out:
	CMPQ DX, CX
	JAE a8best
	VPADDQ Z3, Z2, Z2
	VMOVUPD (SI)(DX*1), Z4
	VCMPPD $0x1E, Z0, Z4, K1     // q[o] > best, GT_OQ
	VMOVAPD Z4, K1, Z0
	VMOVDQA64 Z2, K1, Z1
	ADDQ $64, DX
	JMP a8out

a8best:
	VMOVDQU64 Z1, (DI)
	VZEROUPPER
	RET

// func split8AVX512(x8, xs []float64)
//
// Regroups eight interleaved samples by sample: xs[s·n+i] = x8[8i+s] for
// the n = len(xs)/8 units, eight units at a time through an 8×8 transpose
// in registers (two rounds of VUNPCK[LH]PD, then two of VSHUFF64X2 on
// 128-bit pairs). x8 holds whole groups of eight units: the last group's
// units past n are read and, under a mask, stored by no lane.
TEXT ·split8AVX512(SB), NOSPLIT, $0-48
	MOVQ x8_base+0(FP), SI
	MOVQ xs_base+24(FP), DI
	MOVQ xs_len+32(FP), R9
	SHRQ $3, R9                  // n
	MOVQ R9, R8
	SHLQ $3, R8                  // R8: bytes of one sample's units in xs
	XORQ R10, R10                // R10: the group's first unit

s8group:
	CMPQ R10, R9
	JAE s8done
	MOVQ R9, CX
	SUBQ R10, CX                 // CX: units left
	CMPQ CX, $8
	JAE s8load
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K2                 // K2: the last group's units

s8load:
	VMOVUPD (SI), Z0             // unit i's eight samples
	VMOVUPD 64(SI), Z1
	VMOVUPD 128(SI), Z2
	VMOVUPD 192(SI), Z3
	VMOVUPD 256(SI), Z4
	VMOVUPD 320(SI), Z5
	VMOVUPD 384(SI), Z6
	VMOVUPD 448(SI), Z7
	VUNPCKLPD Z1, Z0, Z8         // samples 0,2,4,6 of units 0,1
	VUNPCKHPD Z1, Z0, Z9         // samples 1,3,5,7 of units 0,1
	VUNPCKLPD Z3, Z2, Z10
	VUNPCKHPD Z3, Z2, Z11
	VUNPCKLPD Z5, Z4, Z12
	VUNPCKHPD Z5, Z4, Z13
	VUNPCKLPD Z7, Z6, Z14
	VUNPCKHPD Z7, Z6, Z15
	VSHUFF64X2 $0x88, Z10, Z8, Z16 // samples 0,4 of units 0–3
	VSHUFF64X2 $0x88, Z11, Z9, Z17 // samples 1,5
	VSHUFF64X2 $0xDD, Z10, Z8, Z18 // samples 2,6
	VSHUFF64X2 $0xDD, Z11, Z9, Z19 // samples 3,7
	VSHUFF64X2 $0x88, Z14, Z12, Z20 // the same of units 4–7
	VSHUFF64X2 $0x88, Z15, Z13, Z21
	VSHUFF64X2 $0xDD, Z14, Z12, Z22
	VSHUFF64X2 $0xDD, Z15, Z13, Z23
	VSHUFF64X2 $0x88, Z20, Z16, Z0 // sample 0 of units 0–7
	VSHUFF64X2 $0x88, Z21, Z17, Z1
	VSHUFF64X2 $0x88, Z22, Z18, Z2
	VSHUFF64X2 $0x88, Z23, Z19, Z3
	VSHUFF64X2 $0xDD, Z20, Z16, Z4 // sample 4
	VSHUFF64X2 $0xDD, Z21, Z17, Z5
	VSHUFF64X2 $0xDD, Z22, Z18, Z6
	VSHUFF64X2 $0xDD, Z23, Z19, Z7
	MOVQ DI, AX
	CMPQ CX, $8
	JB s8tail
	VMOVUPD Z0, (AX)             // plain stores: backward's loads forward from them
	ADDQ R8, AX
	VMOVUPD Z1, (AX)
	ADDQ R8, AX
	VMOVUPD Z2, (AX)
	ADDQ R8, AX
	VMOVUPD Z3, (AX)
	ADDQ R8, AX
	VMOVUPD Z4, (AX)
	ADDQ R8, AX
	VMOVUPD Z5, (AX)
	ADDQ R8, AX
	VMOVUPD Z6, (AX)
	ADDQ R8, AX
	VMOVUPD Z7, (AX)
	JMP s8next

s8tail:
	VMOVUPD Z0, K2, (AX)
	ADDQ R8, AX
	VMOVUPD Z1, K2, (AX)
	ADDQ R8, AX
	VMOVUPD Z2, K2, (AX)
	ADDQ R8, AX
	VMOVUPD Z3, K2, (AX)
	ADDQ R8, AX
	VMOVUPD Z4, K2, (AX)
	ADDQ R8, AX
	VMOVUPD Z5, K2, (AX)
	ADDQ R8, AX
	VMOVUPD Z6, K2, (AX)
	ADDQ R8, AX
	VMOVUPD Z7, K2, (AX)

s8next:
	ADDQ $512, SI
	ADDQ $64, DI
	ADDQ $8, R10
	JMP s8group

s8done:
	VZEROUPPER
	RET

// func backwardAVX512(p, g, x, d, prev []float64)
//
// One sample, eight neighbouring columns per instruction, every column:
// whole groups of eight by plain loads and stores (a masked store does not
// forward to the load that reads it back, so each four rows would wait on
// the last four's store of prev), the last, partial group through the
// tail mask K2, its cells of prev summed in Z14 and stored once. prev is
// zeroed first. Then the rows, up
// to 64 at a time: a scan of eight cells of d per compare (d[o] != 0,
// NEQ_UQ, so ±0 drop out and NaN does not) adds d[o] to those rows' bias
// cells under the compare's mask and lists the rows in the frame, in
// ascending o, by a compressing store; the listed rows go four at a time
// and the last one at a time. Per group of columns, g[o][i] +=
// d[o]*x[i] for each of the four rows, and prev[i] += d[o]*w[o][i] for the
// four in order, prev loaded and stored once. Finally prev[i] = 0
// wherever x[i] <= 0 (ordered, so NaN keeps its delta): the ReLU of the
// layer below. Each cell is its own sum, folded in the Go kernel's order.
// Which rows are zero is data, so it is kept out of the branches: a
// branch per row mispredicts on about half of them.
//
// Frame: 0–504(SP) the listed rows, 512(SP) the end of d, 520(SP) the
// bytes of a row of x, 528(SP) the distance from a cell of d to its bias
// cell, 536(SP) d, 544(SP) the scan's next cell of d and 552(SP) the rows
// listed while the listed rows go.
DATA eightRows<>+0(SB)/8, $0
DATA eightRows<>+8(SB)/8, $1
DATA eightRows<>+16(SB)/8, $2
DATA eightRows<>+24(SB)/8, $3
DATA eightRows<>+32(SB)/8, $4
DATA eightRows<>+40(SB)/8, $5
DATA eightRows<>+48(SB)/8, $6
DATA eightRows<>+56(SB)/8, $7
GLOBL eightRows<>(SB), RODATA|NOPTR, $64

TEXT ·backwardAVX512(SB), NOSPLIT, $560-120
	MOVQ g_base+24(FP), DI       // DI: gradient row 0
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), R13
	MOVQ d_base+72(FP), R8       // R8: the next cell of d to scan
	MOVQ d_len+80(FP), BX
	MOVQ prev_base+96(FP), R9    // R9: prev, or 0 for none
	MOVQ prev_len+104(FP), AX
	TESTQ AX, AX
	JNZ bzmask
	XORQ R9, R9

bzmask:
	MOVQ R13, CX
	ANDQ $7, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K2                 // the tail's columns
	SHLQ $3, R13
	MOVQ R13, 520(SP)
	MOVQ R13, CX
	IMULQ BX, CX
	ADDQ DI, CX
	SUBQ R8, CX
	MOVQ CX, 528(SP)
	MOVQ R8, 536(SP)
	LEAQ (R8)(BX*8), CX
	MOVQ CX, 512(SP)
	ANDQ $-64, R13               // R13: bytes of the whole groups
	VPXORQ Z15, Z15, Z15
	VPXORQ Z14, Z14, Z14         // Z14: prev's tail columns, kept in the register
	VMOVDQU64 eightRows<>(SB), Z20 // Z20: the rows of the cells of d in hand
	MOVQ $8, AX
	VPBROADCASTQ AX, Z23

	TESTQ R9, R9
	JZ bsegment
	XORQ CX, CX
	JMP bclearcond

bclear:
	VMOVUPD Z15, (R9)(CX*1)
	ADDQ $64, CX

bclearcond:
	CMPQ CX, R13
	JB bclear

bsegment:
	CMPQ R8, 512(SP)
	JAE brelu
	XORQ R10, R10                // R10: rows listed
	LEAQ 512(R8), AX             // AX: the end of this segment's cells
	CMPQ AX, 512(SP)
	JBE bscan
	MOVQ 512(SP), AX

bscan:
	MOVQ AX, CX
	SUBQ R8, CX                  // bytes of d left in the segment
	CMPQ CX, $64
	JB bscantail
	VMOVUPD (R8), Z21
	VCMPPD $4, Z15, Z21, K6      // d[o] != 0, NEQ_UQ: ±0 drop out, NaN does not
	VPCOMPRESSQ Z20, K6, (SP)(R10*8) // their rows, in ascending o
	MOVQ 528(SP), CX
	VMOVUPD (R8)(CX*1), Z22
	VADDPD Z21, Z22, K6, Z22     // gb[o] + d[o]
	VMOVUPD Z22, (R8)(CX*1)
	KMOVW K6, CX
	POPCNTL CX, CX
	ADDQ CX, R10
	VPADDQ Z23, Z20, Z20         // the next eight rows
	ADDQ $64, R8
	JMP bscan

bscantail:
	TESTQ CX, CX
	JZ blisted
	SHRQ $3, CX
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVW BX, K5                 // the last cells of d
	VMOVUPD.Z (R8), K5, Z21
	VCMPPD $4, Z15, Z21, K5, K6
	VPCOMPRESSQ Z20, K6, (SP)(R10*8)
	MOVQ 528(SP), CX
	VMOVUPD.Z (R8)(CX*1), K5, Z22
	VADDPD Z21, Z22, K6, Z22
	VMOVUPD Z22, K5, (R8)(CX*1)
	KMOVW K6, CX
	POPCNTL CX, CX
	ADDQ CX, R10
	MOVQ AX, R8

blisted:
	MOVQ R8, 544(SP)             // the scan's place: R8 is a weight row below
	MOVQ R10, 552(SP)
	XORQ R11, R11                // R11: the listed row in hand

bfourrows:
	LEAQ 4(R11), CX
	CMPQ CX, 552(SP)
	JA bonerow
	MOVQ (SP)(R11*8), BX         // the four rows
	MOVQ 8(SP)(R11*8), R12
	MOVQ 16(SP)(R11*8), R15
	MOVQ 24(SP)(R11*8), AX
	MOVQ 536(SP), CX
	VBROADCASTSD (CX)(BX*8), Z16 // their deltas
	VBROADCASTSD (CX)(R12*8), Z17
	VBROADCASTSD (CX)(R15*8), Z18
	VBROADCASTSD (CX)(AX*8), Z19
	MOVQ 520(SP), CX
	IMULQ CX, BX                 // o·8n: row o's offset
	IMULQ CX, R12
	IMULQ CX, R15
	IMULQ CX, AX
	MOVQ p_base+0(FP), CX
	LEAQ (CX)(BX*1), SI          // weight rows of the four
	LEAQ (CX)(R12*1), DI
	LEAQ (CX)(R15*1), R8
	LEAQ (CX)(AX*1), R10
	MOVQ g_base+24(FP), CX
	ADDQ CX, BX                  // gradient rows of the four
	ADDQ CX, R12
	ADDQ CX, R15
	ADDQ CX, AX
	XORQ CX, CX                  // CX: the group of columns, in bytes
	TESTQ R9, R9
	JZ bfourgcond
	JMP bfourcond

bfour:
	VMOVUPD (DX)(CX*1), Z0
	VMULPD Z0, Z16, Z1           // d[o] * x[i]
	VMULPD Z0, Z17, Z2
	VMULPD Z0, Z18, Z3
	VMULPD Z0, Z19, Z4
	VMOVUPD (BX)(CX*1), Z5
	VMOVUPD (R12)(CX*1), Z6
	VMOVUPD (R15)(CX*1), Z7
	VMOVUPD (AX)(CX*1), Z8
	VADDPD Z1, Z5, Z5            // g[o][i] + d[o]*x[i]
	VADDPD Z2, Z6, Z6
	VADDPD Z3, Z7, Z7
	VADDPD Z4, Z8, Z8
	VMOVUPD Z5, (BX)(CX*1)
	VMOVUPD Z6, (R12)(CX*1)
	VMOVUPD Z7, (R15)(CX*1)
	VMOVUPD Z8, (AX)(CX*1)
	VMOVUPD (SI)(CX*1), Z1
	VMOVUPD (DI)(CX*1), Z2
	VMOVUPD (R8)(CX*1), Z3
	VMOVUPD (R10)(CX*1), Z4
	VMULPD Z1, Z16, Z1           // d[o] * w[o][i]
	VMULPD Z2, Z17, Z2
	VMULPD Z3, Z18, Z3
	VMULPD Z4, Z19, Z4
	VMOVUPD (R9)(CX*1), Z9
	VADDPD Z1, Z9, Z9            // prev[i] + d[o]*w[o][i], ascending o
	VADDPD Z2, Z9, Z9
	VADDPD Z3, Z9, Z9
	VADDPD Z4, Z9, Z9
	VMOVUPD Z9, (R9)(CX*1)
	ADDQ $64, CX

bfourcond:
	CMPQ CX, R13
	JB bfour
	CMPQ CX, 520(SP)
	JAE bfourdone
	VMOVUPD.Z (DX)(CX*1), K2, Z0 // the tail's columns: bfour under K2
	VMULPD Z0, Z16, Z1
	VMULPD Z0, Z17, Z2
	VMULPD Z0, Z18, Z3
	VMULPD Z0, Z19, Z4
	VMOVUPD.Z (BX)(CX*1), K2, Z5
	VMOVUPD.Z (R12)(CX*1), K2, Z6
	VMOVUPD.Z (R15)(CX*1), K2, Z7
	VMOVUPD.Z (AX)(CX*1), K2, Z8
	VADDPD Z1, Z5, Z5
	VADDPD Z2, Z6, Z6
	VADDPD Z3, Z7, Z7
	VADDPD Z4, Z8, Z8
	VMOVUPD Z5, K2, (BX)(CX*1)
	VMOVUPD Z6, K2, (R12)(CX*1)
	VMOVUPD Z7, K2, (R15)(CX*1)
	VMOVUPD Z8, K2, (AX)(CX*1)
	VMOVUPD.Z (SI)(CX*1), K2, Z1
	VMOVUPD.Z (DI)(CX*1), K2, Z2
	VMOVUPD.Z (R8)(CX*1), K2, Z3
	VMOVUPD.Z (R10)(CX*1), K2, Z4
	VMULPD Z1, Z16, Z1
	VMULPD Z2, Z17, Z2
	VMULPD Z3, Z18, Z3
	VMULPD Z4, Z19, Z4
	VADDPD Z1, Z14, Z14
	VADDPD Z2, Z14, Z14
	VADDPD Z3, Z14, Z14
	VADDPD Z4, Z14, Z14
	JMP bfourdone

bfourg:                          // no layer below: the gradient alone
	VMOVUPD (DX)(CX*1), Z0
	VMULPD Z0, Z16, Z1
	VMULPD Z0, Z17, Z2
	VMULPD Z0, Z18, Z3
	VMULPD Z0, Z19, Z4
	VMOVUPD (BX)(CX*1), Z5
	VMOVUPD (R12)(CX*1), Z6
	VMOVUPD (R15)(CX*1), Z7
	VMOVUPD (AX)(CX*1), Z8
	VADDPD Z1, Z5, Z5
	VADDPD Z2, Z6, Z6
	VADDPD Z3, Z7, Z7
	VADDPD Z4, Z8, Z8
	VMOVUPD Z5, (BX)(CX*1)
	VMOVUPD Z6, (R12)(CX*1)
	VMOVUPD Z7, (R15)(CX*1)
	VMOVUPD Z8, (AX)(CX*1)
	ADDQ $64, CX

bfourgcond:
	CMPQ CX, R13
	JB bfourg
	CMPQ CX, 520(SP)
	JAE bfourdone
	VMOVUPD.Z (DX)(CX*1), K2, Z0
	VMULPD Z0, Z16, Z1
	VMULPD Z0, Z17, Z2
	VMULPD Z0, Z18, Z3
	VMULPD Z0, Z19, Z4
	VMOVUPD.Z (BX)(CX*1), K2, Z5
	VMOVUPD.Z (R12)(CX*1), K2, Z6
	VMOVUPD.Z (R15)(CX*1), K2, Z7
	VMOVUPD.Z (AX)(CX*1), K2, Z8
	VADDPD Z1, Z5, Z5
	VADDPD Z2, Z6, Z6
	VADDPD Z3, Z7, Z7
	VADDPD Z4, Z8, Z8
	VMOVUPD Z5, K2, (BX)(CX*1)
	VMOVUPD Z6, K2, (R12)(CX*1)
	VMOVUPD Z7, K2, (R15)(CX*1)
	VMOVUPD Z8, K2, (AX)(CX*1)

bfourdone:
	ADDQ $4, R11
	JMP bfourrows

bonerow:
	CMPQ R11, 552(SP)
	JAE bnextsegment
	MOVQ (SP)(R11*8), BX
	MOVQ 536(SP), CX
	VBROADCASTSD (CX)(BX*8), Z16
	IMULQ 520(SP), BX
	MOVQ p_base+0(FP), SI
	ADDQ BX, SI                  // its weight row
	ADDQ g_base+24(FP), BX       // its gradient row
	XORQ CX, CX
	JMP bonecond

bone:
	VMOVUPD (DX)(CX*1), Z0
	VMULPD Z0, Z16, Z1
	VMOVUPD (BX)(CX*1), Z5
	VADDPD Z1, Z5, Z5
	VMOVUPD Z5, (BX)(CX*1)
	TESTQ R9, R9
	JZ bonenext
	VMOVUPD (SI)(CX*1), Z1
	VMULPD Z1, Z16, Z1
	VMOVUPD (R9)(CX*1), Z9
	VADDPD Z1, Z9, Z9
	VMOVUPD Z9, (R9)(CX*1)

bonenext:
	ADDQ $64, CX

bonecond:
	CMPQ CX, R13
	JB bone
	CMPQ CX, 520(SP)
	JAE bonedone
	VMOVUPD.Z (DX)(CX*1), K2, Z0 // the tail's columns: bone under K2
	VMULPD Z0, Z16, Z1
	VMOVUPD.Z (BX)(CX*1), K2, Z5
	VADDPD Z1, Z5, Z5
	VMOVUPD Z5, K2, (BX)(CX*1)
	TESTQ R9, R9
	JZ bonedone
	VMOVUPD.Z (SI)(CX*1), K2, Z1
	VMULPD Z1, Z16, Z1
	VADDPD Z1, Z14, Z14

bonedone:
	INCQ R11
	JMP bonerow

bnextsegment:
	MOVQ 544(SP), R8
	JMP bsegment

brelu:
	TESTQ R9, R9
	JZ bdone512
	XORQ CX, CX
	JMP brelucond

brelucol:
	VMOVUPD (DX)(CX*1), Z0
	VCMPPD $0x12, Z15, Z0, K4    // x <= 0, LE_OQ
	VMOVUPD (R9)(CX*1), Z1
	VMOVAPD Z15, K4, Z1
	VMOVUPD Z1, (R9)(CX*1)
	ADDQ $64, CX

brelucond:
	CMPQ CX, R13
	JB brelucol
	CMPQ CX, 520(SP)
	JAE bdone512
	VMOVUPD.Z (DX)(CX*1), K2, Z0
	VCMPPD $0x12, Z15, Z0, K2, K4 // within the tail
	VMOVAPD Z15, K4, Z14
	VMOVUPD Z14, K2, (R9)(CX*1)

bdone512:
	VZEROUPPER
	RET
