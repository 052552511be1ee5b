package game

import "fmt"

// The alpha1/alpha2 linearization (Section IV-A, Eq. 5's decomposition).
// For a fixed region i and decision k, with the neighbour distributions and
// ratios frozen at the current round, the paper rewrites the per-capita
// growth rate of p_{i,k} as
//
//	delta p / p  =  alpha1 * p  +  alpha2,
//
// where, writing c = beta_i * gamma_{i,i}, A_k for the inter-region gain
// alpha(p_{N_i,k}, x_{N_i}) and S1_k = sum_{l in Acc(k)} p_{i,l} f_l:
//
//	alpha1 = g_k - x_i*c*S1_k - A_k
//	alpha2 = A_k + x_i*c*(S1_k - S2_k) + sum_{l != k} g_l p_{i,l} - g_k
//	       - sum_{l != k} p_{i,l} A_l
//	S2_k   = sum_{l != k} p_{i,l} * sum_{l_a in Acc(l), l_a != k} p_{i,l_a} f_{l_a}
//
// Both alpha1 and alpha2 are affine in x_i, which is what lets the FDS
// policy optimizer solve the case conditions for x_i analytically.

// Affine is a + b*x.
type Affine struct {
	A, B float64
}

// At evaluates the affine form at x.
func (f Affine) At(x float64) float64 { return f.A + f.B*x }

// Add returns the sum of two affine forms.
func (f Affine) Add(g Affine) Affine { return Affine{A: f.A + g.A, B: f.B + g.B} }

// Scale returns c * f.
func (f Affine) Scale(c float64) Affine { return Affine{A: c * f.A, B: c * f.B} }

// LinearCoeffs holds alpha1 and alpha2 for one (region, decision) pair as
// affine functions of that region's own sharing ratio x_i.
type LinearCoeffs struct {
	Alpha1 Affine
	Alpha2 Affine
}

// Alpha1At and Alpha2At evaluate the coefficients at a given x_i.
func (c LinearCoeffs) Alpha1At(x float64) float64 { return c.Alpha1.At(x) }

// Alpha2At evaluates alpha2 at x.
func (c LinearCoeffs) Alpha2At(x float64) float64 { return c.Alpha2.At(x) }

// GrowthRateAt returns alpha1*p + alpha2 evaluated at sharing ratio x and
// share p: the linearized per-capita growth rate.
func (c LinearCoeffs) GrowthRateAt(x, p float64) float64 {
	return c.Alpha1At(x)*p + c.Alpha2At(x)
}

// InterRegionGain computes A_k = alpha(p_{N_i,k}, x_{N_i}): the fitness gain
// decision k in region i receives from neighbour regions (Eq. 4's
// inter-region term), which is independent of x_i.
func (m *Model) InterRegionGain(s *State, i, k int) float64 {
	total := 0.0
	for _, j := range m.nbrs[i] {
		total += s.X[j] * m.graph.Gamma(j, i) * m.AccessibleValue(k, s.P[j])
	}
	return m.beta[i] * total
}

// Linearize computes the alpha1/alpha2 coefficients of every decision in
// region i as affine functions of x_i, freezing all other quantities at the
// current state.
func (m *Model) Linearize(s *State, i int) ([]LinearCoeffs, error) {
	out := make([]LinearCoeffs, m.K())
	if err := m.LinearizeInto(out, make([]float64, 2*m.K()), s, i); err != nil {
		return nil, err
	}
	return out, nil
}

// LinearizeInto is Linearize writing into out (K entries) and using scratch
// (at least 2K entries) for its intermediate sums, so it allocates nothing.
func (m *Model) LinearizeInto(out []LinearCoeffs, scratch []float64, s *State, i int) error {
	if i < 0 || i >= m.M() {
		return fmt.Errorf("game: region %d out of range [0,%d)", i, m.M())
	}
	k := m.K()
	if len(out) != k || len(scratch) < 2*k {
		return fmt.Errorf("game: linearize buffers hold %d coefficients and %d scratch, want %d and %d",
			len(out), len(scratch), k, 2*k)
	}
	p := s.P[i]
	c := m.beta[i] * m.graph.Gamma(i, i)

	// Precompute A_l for all decisions and S1_l.
	interGain, s1 := scratch[:k], scratch[k:2*k]
	for l := 0; l < k; l++ {
		interGain[l] = m.InterRegionGain(s, i, l)
		s1[l] = m.AccessibleValue(l, p)
	}

	for kk := 0; kk < k; kk++ {
		gk := m.payoffs.Cost[kk]

		// S2_k = sum_{l != k} p_l * sum_{l_a in Acc(l), l_a != k} p_{l_a} f_{l_a}.
		s2 := 0.0
		for l := 0; l < k; l++ {
			if l == kk {
				continue
			}
			innerSum := s1[l]
			if m.accessContains(l, kk) {
				innerSum -= p[kk] * m.payoffs.Utility[kk]
			}
			s2 += p[l] * innerSum
		}

		sumOtherCost := 0.0
		sumOtherGain := 0.0
		for l := 0; l < k; l++ {
			if l == kk {
				continue
			}
			sumOtherCost += m.payoffs.Cost[l] * p[l]
			sumOtherGain += p[l] * interGain[l]
		}

		out[kk] = LinearCoeffs{
			Alpha1: Affine{
				A: gk - interGain[kk],
				B: -c * s1[kk],
			},
			Alpha2: Affine{
				A: interGain[kk] + sumOtherCost - gk - sumOtherGain,
				B: c * (s1[kk] - s2),
			},
		}
	}
	return nil
}

// accessContains reports whether decision l (0-based) can access decision
// k's (0-based) shared data.
func (m *Model) accessContains(l, k int) bool {
	for _, a := range m.access[l] {
		if a == k {
			return true
		}
	}
	return false
}
