// Package optimize provides the numeric primitives behind the policy
// optimizer: closed-interval algebra on [0,1] (used by FDS to solve the
// convergence-case conditions for the sharing ratio analytically) and a
// projected-subgradient feasibility solver (used by the relaxed lower-bound
// problem of Eq. 22).
package optimize

import (
	"fmt"
	"math"
)

// Interval is a closed interval [Lo, Hi]. An interval with Lo > Hi is empty.
type Interval struct {
	Lo, Hi float64
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(other Interval) Interval {
	return Interval{Lo: math.Max(iv.Lo, other.Lo), Hi: math.Min(iv.Hi, other.Hi)}
}

// Width returns the length of the interval (0 for empty ones).
func (iv Interval) Width() float64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Clamp returns the point of the interval nearest to x. Calling Clamp on an
// empty interval is a bug; it returns NaN to make the misuse loud.
func (iv Interval) Clamp(x float64) float64 {
	if iv.Empty() {
		return math.NaN()
	}
	return math.Max(iv.Lo, math.Min(iv.Hi, x))
}

// String implements fmt.Stringer.
func (iv Interval) String() string {
	if iv.Empty() {
		return "∅"
	}
	return fmt.Sprintf("[%.4f,%.4f]", iv.Lo, iv.Hi)
}

// Unit is the interval [0, 1].
func Unit() Interval { return Interval{Lo: 0, Hi: 1} }

// EmptyInterval returns a canonical empty interval.
func EmptyInterval() Interval { return Interval{Lo: 1, Hi: 0} }

// SolveAffineGE returns {x in [0,1] : a + b*x >= 0} as an interval.
func SolveAffineGE(a, b float64) Interval {
	const eps = 1e-12
	switch {
	case math.Abs(b) <= eps:
		if a >= -eps {
			return Unit()
		}
		return EmptyInterval()
	case b > 0:
		return Interval{Lo: math.Max(0, -a/b), Hi: 1}.Intersect(Unit())
	default:
		return Interval{Lo: 0, Hi: math.Min(1, -a/b)}.Intersect(Unit())
	}
}

// SolveAffineLE returns {x in [0,1] : a + b*x <= 0} as an interval.
func SolveAffineLE(a, b float64) Interval {
	return SolveAffineGE(-a, -b)
}

// Set is a union of disjoint, sorted, non-empty intervals within [0,1].
// The zero Set is the empty set.
type Set struct {
	ivs []Interval
}

// NewSet builds a Set from arbitrary intervals (they are cleaned, sorted,
// and merged). It allocates once, for the result, and not at all when the
// result is empty.
func NewSet(ivs ...Interval) Set {
	var kept []Interval
	for _, iv := range ivs {
		if iv = iv.Intersect(Unit()); !iv.Empty() {
			if kept == nil {
				kept = make([]Interval, 0, len(ivs))
			}
			kept = append(kept, iv)
		}
	}
	if kept == nil {
		return Set{}
	}
	return mergeInPlace(kept)
}

// mergeInPlace stably sorts non-empty intervals within [0,1] by Lo and
// merges overlapping neighbours, reusing kept's backing array for the Set.
// Sets hold a handful of intervals, so the sort is an insertion sort.
func mergeInPlace(kept []Interval) Set {
	for i := 1; i < len(kept); i++ {
		iv, j := kept[i], i
		for ; j > 0 && kept[j-1].Lo > iv.Lo; j-- {
			kept[j] = kept[j-1]
		}
		kept[j] = iv
	}
	merged := kept[:1]
	for _, iv := range kept[1:] {
		if last := &merged[len(merged)-1]; iv.Lo <= last.Hi+1e-12 {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		merged = append(merged, iv)
	}
	return Set{ivs: merged}
}

// fullSet is [0,1]; Sets are immutable, so every FullSet shares it.
var fullSet = NewSet(Unit())

// FullSet returns the set {[0,1]}.
func FullSet() Set { return fullSet }

// Empty reports whether the set contains no points.
func (s Set) Empty() bool { return len(s.ivs) == 0 }

// Intervals returns the disjoint intervals of the set in ascending order.
func (s Set) Intervals() []Interval { return append([]Interval(nil), s.ivs...) }

// Contains reports membership.
func (s Set) Contains(x float64) bool {
	for _, iv := range s.ivs {
		if iv.Contains(x) {
			return true
		}
	}
	return false
}

// Union returns the union of two sets.
func (s Set) Union(other Set) Set {
	return NewSet(append(s.Intervals(), other.ivs...)...)
}

// Intersect returns the intersection of two sets. It allocates once, for
// the result, and not at all when the result is empty or one side is
// [0,1] (Sets are immutable, so the other side is returned as is).
func (s Set) Intersect(other Set) Set {
	switch {
	case s.isFull():
		return other
	case other.isFull():
		return s
	}
	var out []Interval
	for _, a := range s.ivs {
		for _, b := range other.ivs {
			if c := a.Intersect(b); !c.Empty() {
				if out == nil {
					// Two sorted disjoint sets meet in fewer pieces
					// than they hold intervals together.
					out = make([]Interval, 0, len(s.ivs)+len(other.ivs))
				}
				out = append(out, c)
			}
		}
	}
	if out == nil {
		return Set{}
	}
	return mergeInPlace(out)
}

func (s Set) isFull() bool { return len(s.ivs) == 1 && s.ivs[0] == Unit() }

// Nearest returns the point of the set closest to x. ok is false when the
// set is empty.
func (s Set) Nearest(x float64) (nearest float64, ok bool) {
	if s.Empty() {
		return 0, false
	}
	best, bestD := 0.0, math.Inf(1)
	for _, iv := range s.ivs {
		c := iv.Clamp(x)
		if d := math.Abs(c - x); d < bestD {
			bestD, best = d, c
		}
	}
	return best, true
}

// Min returns the smallest point of the set. ok is false when empty.
func (s Set) Min() (float64, bool) {
	if s.Empty() {
		return 0, false
	}
	return s.ivs[0].Lo, true
}

// String implements fmt.Stringer.
func (s Set) String() string {
	if s.Empty() {
		return "∅"
	}
	out := ""
	for i, iv := range s.ivs {
		if i > 0 {
			out += "∪"
		}
		out += iv.String()
	}
	return out
}
