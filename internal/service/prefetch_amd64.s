#include "textflag.h"

// func prefetchEntry(e *entry)
TEXT ·prefetchEntry(SB), NOSPLIT, $0-8
	MOVQ e+0(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	PREFETCHT0 127(AX)
	RET

// func prefetchDetector(d core.Detector)
TEXT ·prefetchDetector(SB), NOSPLIT, $0-16
	MOVQ d_data+8(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	PREFETCHT0 128(AX)
	RET
