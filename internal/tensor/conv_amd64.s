#include "textflag.h"

// AVX2 micro-kernels of Conv2DInto (conv.go) for stride-1 output rows.
// Every lane runs the scalar kernel's operation sequence for its output
// element: the accumulator starts at +0, each (c, ky, kx) tap in ascending
// order is one VMULPS (weight × input) then one VADDPS into the
// accumulator, and the bias is added last. There is no FMA, so each lane
// rounds exactly where the scalar MULSS and ADDSS do and the results are
// bit-identical.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no

	// Leaf 1: OSXSAVE (ECX bit 27) and AVX (ECX bit 28).
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no

	// XCR0: the OS saves the XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// Leaf 7, sub-leaf 0: AVX2 (EBX bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func conv4x8AVX2(dst *float32, dstStride int, xp *float32, offs *int, wg *[4]float32, k int, bias *float32, blocks int)
//
// Writes blocks×8 adjacent outputs of four output channels, channel r at
// dst + r*dstStride. Output column j reads the taps xp[j+offs[i]]; wg holds
// the k taps' weights of the four channels interleaved.
TEXT ·conv4x8AVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R11
	SHLQ $2, R11
	MOVQ xp+16(FP), SI
	MOVQ offs+24(FP), R8
	MOVQ wg+32(FP), R9
	MOVQ k+40(FP), R10
	MOVQ bias+48(FP), AX
	MOVQ blocks+56(FP), BX
	VBROADCASTSS 0(AX), Y8
	VBROADCASTSS 4(AX), Y9
	VBROADCASTSS 8(AX), Y10
	VBROADCASTSS 12(AX), Y11
	LEAQ (DI)(R11*2), R12

block4:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   CX, CX
	MOVQ   R9, DX

tap4:
	MOVQ         (R8)(CX*8), R13
	VMOVUPS      (SI)(R13*4), Y4
	VBROADCASTSS 0(DX), Y12
	VMULPS       Y4, Y12, Y12
	VADDPS       Y12, Y0, Y0
	VBROADCASTSS 4(DX), Y13
	VMULPS       Y4, Y13, Y13
	VADDPS       Y13, Y1, Y1
	VBROADCASTSS 8(DX), Y14
	VMULPS       Y4, Y14, Y14
	VADDPS       Y14, Y2, Y2
	VBROADCASTSS 12(DX), Y15
	VMULPS       Y4, Y15, Y15
	VADDPS       Y15, Y3, Y3
	ADDQ         $16, DX
	INCQ         CX
	CMPQ         CX, R10
	JLT          tap4

	VADDPS  Y8, Y0, Y0
	VADDPS  Y9, Y1, Y1
	VADDPS  Y10, Y2, Y2
	VADDPS  Y11, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R11*1)
	VMOVUPS Y2, (R12)
	VMOVUPS Y3, (R12)(R11*1)
	ADDQ    $32, DI
	ADDQ    $32, R12
	ADDQ    $32, SI
	DECQ    BX
	JNZ     block4
	VZEROUPPER
	RET

// func conv1x8AVX2(dst *float32, xp *float32, offs *int, w *float32, k int, bias float32, blocks int)
//
// Writes blocks×8 adjacent outputs of one output channel: four blocks (32
// columns) at a time while they last, then one block at a time.
TEXT ·conv1x8AVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         xp+8(FP), SI
	MOVQ         offs+16(FP), R8
	MOVQ         w+24(FP), R9
	MOVQ         k+32(FP), R10
	VBROADCASTSS bias+40(FP), Y8
	MOVQ         blocks+48(FP), BX
	CMPQ         BX, $4
	JLT          one

quad:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   CX, CX

tapquad:
	MOVQ         (R8)(CX*8), R13
	LEAQ         (SI)(R13*4), R13
	VBROADCASTSS (R9)(CX*4), Y4
	VMULPS       0(R13), Y4, Y12
	VADDPS       Y12, Y0, Y0
	VMULPS       32(R13), Y4, Y13
	VADDPS       Y13, Y1, Y1
	VMULPS       64(R13), Y4, Y14
	VADDPS       Y14, Y2, Y2
	VMULPS       96(R13), Y4, Y15
	VADDPS       Y15, Y3, Y3
	INCQ         CX
	CMPQ         CX, R10
	JLT          tapquad

	VADDPS  Y8, Y0, Y0
	VADDPS  Y8, Y1, Y1
	VADDPS  Y8, Y2, Y2
	VADDPS  Y8, Y3, Y3
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $4, BX
	CMPQ    BX, $4
	JGE     quad

one:
	TESTQ BX, BX
	JZ    done
	VXORPS Y0, Y0, Y0
	XORQ   CX, CX

tapone:
	MOVQ         (R8)(CX*8), R13
	VBROADCASTSS (R9)(CX*4), Y4
	VMULPS       (SI)(R13*4), Y4, Y12
	VADDPS       Y12, Y0, Y0
	INCQ         CX
	CMPQ         CX, R10
	JLT          tapone

	VADDPS  Y8, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    BX
	JMP     one

done:
	VZEROUPPER
	RET
