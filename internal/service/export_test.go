package service

// The TopK gate's constants, for the external gate tests.
const (
	TopKGateMargin  = topKGateMargin
	TopKGateCeiling = topKGateCeiling
)
