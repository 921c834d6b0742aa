//go:build amd64 && !purego && !race

#include "textflag.h"

// A lane row is 32 int64 lanes, 256 bytes: eight YMM vectors. Signed int64
// max is VPCMPGTQ (a > b) then VPBLENDVB (take a where it was greater);
// VPADDQ wraps like Go's int64 addition.

// laneCols offsets.
#define SENDOV 0
#define ILRECV 256
#define ILWANPER 512
#define WANLAT 768

// MAXQ sets a to max(a, b); m is scratch.
#define MAXQ(b, a, m) \
	VPCMPGTQ  b, a, m; \
	VPBLENDVB m, a, b, a

// func spanAddAVX2(re *laneRow, d sim.Time)
TEXT ·spanAddAVX2(SB), NOSPLIT, $0-16
	MOVQ         re+0(FP), DI
	VPBROADCASTQ d+8(FP), Y8
	VPADDQ       0(DI), Y8, Y0
	VPADDQ       32(DI), Y8, Y1
	VPADDQ       64(DI), Y8, Y2
	VPADDQ       96(DI), Y8, Y3
	VPADDQ       128(DI), Y8, Y4
	VPADDQ       160(DI), Y8, Y5
	VPADDQ       192(DI), Y8, Y6
	VPADDQ       224(DI), Y8, Y7
	VMOVDQU      Y0, 0(DI)
	VMOVDQU      Y1, 32(DI)
	VMOVDQU      Y2, 64(DI)
	VMOVDQU      Y3, 96(DI)
	VMOVDQU      Y4, 128(DI)
	VMOVDQU      Y5, 160(DI)
	VMOVDQU      Y6, 192(DI)
	VMOVDQU      Y7, 224(DI)
	VZEROUPPER
	RET

// func recvMergeAVX2(re *laneRow, delivered []laneRow, slots []int32)
TEXT ·recvMergeAVX2(SB), NOSPLIT, $0-56
	MOVQ    re+0(FP), DI
	MOVQ    delivered_base+8(FP), SI
	MOVQ    slots_base+32(FP), BX
	MOVQ    slots_len+40(FP), CX
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VMOVDQU 128(DI), Y4
	VMOVDQU 160(DI), Y5
	VMOVDQU 192(DI), Y6
	VMOVDQU 224(DI), Y7

slot:
	TESTQ   CX, CX
	JZ      done
	MOVLQSX (BX), DX
	SHLQ    $8, DX // slot * 256 bytes
	ADDQ    SI, DX
	VMOVDQU 0(DX), Y8
	VMOVDQU 32(DX), Y10
	VMOVDQU 64(DX), Y12
	VMOVDQU 96(DX), Y14
	MAXQ(Y8, Y0, Y9)
	MAXQ(Y10, Y1, Y11)
	MAXQ(Y12, Y2, Y13)
	MAXQ(Y14, Y3, Y15)
	VMOVDQU 128(DX), Y8
	VMOVDQU 160(DX), Y10
	VMOVDQU 192(DX), Y12
	VMOVDQU 224(DX), Y14
	MAXQ(Y8, Y4, Y9)
	MAXQ(Y10, Y5, Y11)
	MAXQ(Y12, Y6, Y13)
	MAXQ(Y14, Y7, Y15)
	ADDQ    $4, BX
	DECQ    CX
	JMP     slot

done:
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y6, 192(DI)
	VMOVDQU Y7, 224(DI)
	VZEROUPPER
	RET

// The send kernels' body for the vector at byte offset off, split at the
// point where Y0 holds max(re, dr): an unfused send passes dr == re, and
// its path skips that max (max(x, x) = x) and starts from re alone. The
// eight vectors are unrolled with fixed displacements, so no indexed
// addressing un-laminates the memory-operand adds.
// Registers: AX re, BX dr, DX del, SI nic, R8 wan, R9 gw, R10 tx, R11 wtx,
// R12 laneCols.
#define READY(off) \
	VMOVDQU off(AX), Y0; \
	VMOVDQU off(BX), Y1; \
	MAXQ(Y1, Y0, Y2)

// ready = Y0 + sendOv; nicDone = max(ready, nic) + tx, left in Y0.
#define NIC(off) \
	VPADDQ  SENDOV+off(R12), Y0, Y0; \
	VMOVDQU Y0, off(AX); \
	VMOVDQU off(SI), Y1; \
	MAXQ(Y1, Y0, Y2); \
	VPADDQ  off(R10), Y0, Y0; \
	VMOVDQU Y0, off(SI)

// wanDone = max(nicDone + ilWanPer, wan) + wtx; gwDone = max(wanDone +
// wanLat, gw) + tx, left in Y0.
#define PIPE(off) \
	VPADDQ  ILWANPER+off(R12), Y0, Y0; \
	VMOVDQU off(R8), Y1; \
	MAXQ(Y1, Y0, Y2); \
	VPADDQ  off(R11), Y0, Y0; \
	VMOVDQU Y0, off(R8); \
	VPADDQ  WANLAT+off(R12), Y0, Y0; \
	VMOVDQU off(R9), Y1; \
	MAXQ(Y1, Y0, Y2); \
	VPADDQ  off(R10), Y0, Y0; \
	VMOVDQU Y0, off(R9)

// del = Y0 + ilRecv.
#define DELIVER(off) \
	VPADDQ  ILRECV+off(R12), Y0, Y0; \
	VMOVDQU Y0, off(DX)

#define LOCAL(off) NIC(off); DELIVER(off)
#define FUSEDLOCAL(off) READY(off); LOCAL(off)
#define UNFUSEDLOCAL(off) VMOVDQU off(AX), Y0; LOCAL(off)
#define WAN(off) NIC(off); PIPE(off); DELIVER(off)
#define FUSEDWAN(off) READY(off); WAN(off)
#define UNFUSEDWAN(off) VMOVDQU off(AX), Y0; WAN(off)

// func sendLocalAVX2(re, dr, del, nic, tx *laneRow, c *laneCols)
//
// Per vector: ready = max(re, dr) + sendOv; nicDone = max(ready, nic) + tx;
// del = nicDone + ilRecv. dr is loaded before del is stored (they may be
// the same row).
TEXT ·sendLocalAVX2(SB), NOSPLIT, $0-48
	MOVQ re+0(FP), AX
	MOVQ dr+8(FP), BX
	MOVQ del+16(FP), DX
	MOVQ nic+24(FP), SI
	MOVQ tx+32(FP), R10
	MOVQ c+40(FP), R12
	CMPQ AX, BX
	JEQ  unfused
	FUSEDLOCAL(0)
	FUSEDLOCAL(32)
	FUSEDLOCAL(64)
	FUSEDLOCAL(96)
	FUSEDLOCAL(128)
	FUSEDLOCAL(160)
	FUSEDLOCAL(192)
	FUSEDLOCAL(224)
	VZEROUPPER
	RET

unfused:
	UNFUSEDLOCAL(0)
	UNFUSEDLOCAL(32)
	UNFUSEDLOCAL(64)
	UNFUSEDLOCAL(96)
	UNFUSEDLOCAL(128)
	UNFUSEDLOCAL(160)
	UNFUSEDLOCAL(192)
	UNFUSEDLOCAL(224)
	VZEROUPPER
	RET

// func sendWANAVX2(re, dr, del, nic, wan, gw, tx, wtx *laneRow, c *laneCols)
//
// sendLocalAVX2's NIC leg, then the pipe and the gateway, then the
// delivery.
TEXT ·sendWANAVX2(SB), NOSPLIT, $0-72
	MOVQ re+0(FP), AX
	MOVQ dr+8(FP), BX
	MOVQ del+16(FP), DX
	MOVQ nic+24(FP), SI
	MOVQ wan+32(FP), R8
	MOVQ gw+40(FP), R9
	MOVQ tx+48(FP), R10
	MOVQ wtx+56(FP), R11
	MOVQ c+64(FP), R12
	CMPQ AX, BX
	JEQ  unfused
	FUSEDWAN(0)
	FUSEDWAN(32)
	FUSEDWAN(64)
	FUSEDWAN(96)
	FUSEDWAN(128)
	FUSEDWAN(160)
	FUSEDWAN(192)
	FUSEDWAN(224)
	VZEROUPPER
	RET

unfused:
	UNFUSEDWAN(0)
	UNFUSEDWAN(32)
	UNFUSEDWAN(64)
	UNFUSEDWAN(96)
	UNFUSEDWAN(128)
	UNFUSEDWAN(160)
	UNFUSEDWAN(192)
	UNFUSEDWAN(224)
	VZEROUPPER
	RET
