package fpamc

// Test-set builders shared with the external fpamc_test package.
var (
	DualSet       = dualSet
	DecodeDualSet = decodeDualSet
)
