package mc

// This file is the repository's single sanctioned home for exact
// floating-point equality: the tolerant comparison helpers below are
// what the rest of the codebase uses instead of == / !=. It is
// allowlisted by the mclint/floateq check; everywhere else a float
// equality comparison is a lint finding.

import "math"

// ApproxEq reports whether a and b are equal within the package
// tolerance Eps. Exactly equal values (including equal infinities)
// compare true even where a-b is NaN.
func ApproxEq(a, b float64) bool {
	return a == b || math.Abs(a-b) <= Eps
}

// SameFloat reports exact bit-level-meaningful equality: true when a
// and b are numerically equal or both NaN. It exists for code (tests,
// determinism checks) that deliberately needs exact comparison without
// tripping the floateq lint.
func SameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}
