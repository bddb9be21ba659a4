#include "textflag.h"

// func Line(p unsafe.Pointer)
TEXT ·Line(SB), NOSPLIT, $0-8
	MOVD p+0(FP), R0
	PRFM (R0), PLDL1KEEP
	RET

// func Span(p unsafe.Pointer)
TEXT ·Span(SB), NOSPLIT, $0-8
	MOVD p+0(FP), R0
	PRFM (R0), PLDL1KEEP
	PRFM 64(R0), PLDL1KEEP
	ADD $127, R0
	PRFM (R0), PLDL1KEEP
	RET

// func Head(p unsafe.Pointer)
TEXT ·Head(SB), NOSPLIT, $0-8
	MOVD p+0(FP), R0
	PRFM (R0), PLDL1KEEP
	PRFM 64(R0), PLDL1KEEP
	PRFM 128(R0), PLDL1KEEP
	RET
