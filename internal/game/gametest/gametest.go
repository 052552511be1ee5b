// Package gametest holds test helpers over game states.
package gametest

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/game"
)

// simplexTol is how far a folded decision row may stray from the
// probability simplex: census shares are exact quotients, so a row is off
// by rounding only.
const simplexTol = 1e-9

// FoldInvariants returns an error unless st satisfies the fold's
// post-conditions: one ratio per decision row, every row on the probability
// simplex within 1e-9, every ratio in [0,1], and no NaN or ±Inf anywhere.
func FoldInvariants(st *game.State) error {
	if len(st.P) != len(st.X) {
		return fmt.Errorf("%d decision rows but %d ratios", len(st.P), len(st.X))
	}
	for i, row := range st.P {
		sum := 0.0
		for k, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("P[%d][%d] = %v", i, k, v)
			}
			if v < -simplexTol {
				return fmt.Errorf("P[%d][%d] = %v is negative", i, k, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > simplexTol {
			return fmt.Errorf("P[%d] sums to %v, want 1", i, sum)
		}
	}
	for i, x := range st.X {
		if math.IsNaN(x) || x < 0 || x > 1 {
			return fmt.Errorf("X[%d] = %v outside [0,1]", i, x)
		}
	}
	return nil
}

// CheckFold fails tb unless st satisfies FoldInvariants; what names the
// state in the failure.
func CheckFold(tb testing.TB, what string, st *game.State) {
	tb.Helper()
	if err := FoldInvariants(st); err != nil {
		tb.Errorf("%s: fold invariant violated: %v", what, err)
	}
}
