#include "textflag.h"

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV               // XCR0 into DX:AX
	ANDL $6, AX          // XMM (bit 1) and YMM (bit 2) state enabled
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func dot2x8(a0, a1, pb []float64, acc *[16]float64)
//
// Y0, Y1 hold row 0's columns 0-3 and 4-7, Y2, Y3 row 1's. Each step
// broadcasts a0[p] and a1[p], loads pb[8p:8p+8] and adds four rounded
// four-lane products onto the accumulators.
TEXT ·dot2x8(SB), NOSPLIT, $0-80
	MOVQ a0_base+0(FP), SI
	MOVQ a0_len+8(FP), CX
	MOVQ a1_base+24(FP), DI
	MOVQ pb_base+48(FP), DX
	MOVQ acc+72(FP), AX
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	XORQ BX, BX
	TESTQ CX, CX
	JEQ  done

loop:
	VBROADCASTSD (SI)(BX*8), Y4
	VBROADCASTSD (DI)(BX*8), Y5
	VMOVUPD      0(DX), Y6
	VMOVUPD      32(DX), Y7
	VMULPD       Y6, Y4, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       Y7, Y4, Y9
	VADDPD       Y9, Y1, Y1
	VMULPD       Y6, Y5, Y10
	VADDPD       Y10, Y2, Y2
	VMULPD       Y7, Y5, Y11
	VADDPD       Y11, Y3, Y3
	ADDQ         $64, DX
	INCQ         BX
	CMPQ         BX, CX
	JNE          loop

done:
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VZEROUPPER
	RET

// func dot1x16(x, pb []float64, acc *[16]float64)
//
// Y0-Y3 hold rows 0-3, 4-7, 8-11 and 12-15. Each step broadcasts x[j],
// loads pb[16j:16j+16] and adds four rounded four-lane products onto the
// accumulators.
TEXT ·dot1x16(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ pb_base+24(FP), DX
	MOVQ acc+48(FP), AX
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	XORQ BX, BX
	TESTQ CX, CX
	JEQ  done

loop:
	VBROADCASTSD (SI)(BX*8), Y4
	VMULPD       0(DX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(DX), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(DX), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(DX), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $128, DX
	INCQ         BX
	CMPQ         BX, CX
	JNE          loop

done:
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VZEROUPPER
	RET
