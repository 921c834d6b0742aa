//go:build amd64 && !purego && !race

#include "textflag.h"

// func relaxRowAVX2(dst, src []int32, d int32)
TEXT ·relaxRowAVX2(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	MOVL         d+48(FP), AX
	MOVQ         AX, X0
	VPBROADCASTD X0, Y0
	SHRQ         $3, CX // whole 8-lane blocks; the caller relaxes the tail

blocks4:
	CMPQ    CX, $4
	JLT     block1
	VPADDD  0(SI), Y0, Y1
	VPADDD  32(SI), Y0, Y2
	VPADDD  64(SI), Y0, Y3
	VPADDD  96(SI), Y0, Y4
	VPMINSD 0(DI), Y1, Y1
	VPMINSD 32(DI), Y2, Y2
	VPMINSD 64(DI), Y3, Y3
	VPMINSD 96(DI), Y4, Y4
	VMOVDQU Y1, 0(DI)
	VMOVDQU Y2, 32(DI)
	VMOVDQU Y3, 64(DI)
	VMOVDQU Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $4, CX
	JMP     blocks4

block1:
	TESTQ   CX, CX
	JZ      done
	VPADDD  (SI), Y0, Y1
	VPMINSD (DI), Y1, Y1
	VMOVDQU Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JMP     block1

done:
	VZEROUPPER
	RET
