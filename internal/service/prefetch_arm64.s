#include "textflag.h"

// func prefetchEntry(e *entry)
TEXT ·prefetchEntry(SB), NOSPLIT, $0-8
	MOVD e+0(FP), R0
	PRFM (R0), PLDL1KEEP
	PRFM 64(R0), PLDL1KEEP
	ADD $127, R0
	PRFM (R0), PLDL1KEEP
	RET

// func prefetchDetector(d core.Detector)
TEXT ·prefetchDetector(SB), NOSPLIT, $0-16
	MOVD d_data+8(FP), R0
	PRFM (R0), PLDL1KEEP
	PRFM 64(R0), PLDL1KEEP
	PRFM 128(R0), PLDL1KEEP
	RET
