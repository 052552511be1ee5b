package main

import "repro/internal/lattice"

// decisions is the paper lattice's decision count K, the length of every
// census.
var decisions = lattice.NewPaper().K()

// stream is a SplitMix64 generator. Every input the benchmark makes is a
// pure function of (seed, stream kind, round, region), so the reference
// check regenerates a run's history instead of holding it in memory, and
// the tier's footprint is all that max_rss_mb sees grow.
type stream struct{ x uint64 }

// Stream kinds.
const (
	streamPool = iota + 1
	streamBatch
	streamLate
	streamVehicles
	streamDecisions
	streamJournaled
)

func newStream(seed int64, parts ...int) *stream {
	s := &stream{x: uint64(seed)}
	for _, p := range parts {
		s.x ^= uint64(p) * 0xd1342543de82ef95
		s.next()
	}
	return s
}

func (s *stream) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *stream) intn(n int) int { return int(s.next() % uint64(n)) }

// float returns a value in [0, 1).
func (s *stream) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// preference is a random weighting of the K decisions.
type preference struct {
	weight []float64
	total  float64
}

func newPreference(s *stream) preference {
	p := preference{weight: make([]float64, decisions)}
	for k := range p.weight {
		p.weight[k] = s.float() * s.float()
		p.total += p.weight[k]
	}
	return p
}

// draw picks a decision index in [0, K) by the preference.
func (p preference) draw(s *stream) int {
	u := s.float() * p.total
	k := 0
	for ; k < len(p.weight)-1 && u >= p.weight[k]; k++ {
		u -= p.weight[k]
	}
	return k
}

// fleetInputs generates the censuses of the direct and sharded workloads.
// A round's census for a region is one entry of a seeded pool, each entry
// the decisions of the fleet's sampled vehicles under a random preference,
// so regions report varied shares every round while a round costs one draw
// per region to generate.
type fleetInputs struct {
	seed int64
	m    int
	pool [][]int
	late bool // 1 round in 10 resends one region's census for the round before
}

const poolSize = 4096

func newFleetInputs(seed int64, m, vehicles int, late bool) *fleetInputs {
	f := &fleetInputs{seed: seed, m: m, pool: make([][]int, poolSize), late: late}
	s := newStream(seed, streamPool)
	for i := range f.pool {
		pref := newPreference(s)
		counts := make([]int, decisions)
		for v := 0; v < vehicles; v++ {
			counts[pref.draw(s)]++
		}
		f.pool[i] = counts
	}
	return f
}

// row returns round r's pool entry per region.
func (f *fleetInputs) row(r int) []int {
	s := newStream(f.seed, streamBatch, r)
	row := make([]int, f.m)
	for i := range row {
		row[i] = s.intn(poolSize)
	}
	return row
}

// lateCensus returns the late census sent during round r for round r-1,
// if any: a seeded region and a pool entry other than the one it sent
// (prev is round r-1's row).
func (f *fleetInputs) lateCensus(r int, prev []int) (region, entry int, ok bool) {
	if !f.late || r < 1 {
		return 0, 0, false
	}
	s := newStream(f.seed, streamLate, r)
	if s.intn(10) != 0 {
		return 0, 0, false
	}
	region = s.intn(f.m)
	entry = s.intn(poolSize - 1)
	if entry >= prev[region] {
		entry++
	}
	return region, entry, true
}

// censuses returns what the tier folded for round r of a run of rounds
// rounds: round r's row with the late census of round r+1, when one was
// sent, in place of the census it replaced.
func (f *fleetInputs) censuses(r, rounds int) map[int][]int {
	row := f.row(r)
	if r+1 < rounds {
		if region, entry, ok := f.lateCensus(r+1, row); ok {
			row[region] = entry
		}
	}
	out := make(map[int][]int, f.m)
	for region, entry := range row {
		out[region] = f.pool[entry]
	}
	return out
}
