package gametest

import (
	"math"
	"strings"
	"testing"

	"repro/internal/game"
)

func TestFoldInvariants(t *testing.T) {
	if err := FoldInvariants(game.NewUniformState(4, 8, 0.5)); err != nil {
		t.Fatalf("uniform state: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*game.State)
		want   string
	}{
		{"shape", func(s *game.State) { s.X = s.X[:1] }, "ratios"},
		{"nan share", func(s *game.State) { s.P[1][2] = math.NaN() }, "P[1][2]"},
		{"inf share", func(s *game.State) { s.P[0][0] = math.Inf(1) }, "P[0][0]"},
		{"negative share", func(s *game.State) { s.P[0][0], s.P[0][1] = -0.5, 1 }, "negative"},
		{"off simplex", func(s *game.State) { s.P[1][0] += 2e-9 }, "sums to"},
		{"ratio above 1", func(s *game.State) { s.X[1] = 1.5 }, "X[1]"},
		{"nan ratio", func(s *game.State) { s.X[0] = math.NaN() }, "X[0]"},
	} {
		s := game.NewUniformState(2, 3, 0.5)
		tc.mutate(s)
		err := FoldInvariants(s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
