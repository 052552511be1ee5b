package cloud_test

import (
	"encoding/json"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cloud"
	"repro/internal/game"
	"repro/internal/game/gametest"
	"repro/internal/lattice"
	"repro/internal/scenario"
)

// jsonWitness is the state witness Fold.Hash replaced: a CRC-32C over the
// state's JSON encoding. encoding/json writes every finite float64 in its
// shortest round-trip form ("-0" included), so it separates exactly the
// finite states whose bits or shapes differ. It cannot encode NaN or ±Inf
// and mapped every such state to 0.
func jsonWitness(st *game.State) uint32 {
	b, err := json.Marshal(st)
	if err != nil {
		return 0
	}
	return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
}

// witnessFold returns a fold whose state tests swap in with SetState.
func witnessFold(t *testing.T) *cloud.Fold {
	t.Helper()
	fds, _ := cloud.NewTestFDS(t)
	fold, err := cloud.NewFold(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	return fold
}

// randomState draws a state with 1 to 6 ragged rows of 1 to 5 entries and
// 1 to 6 ratios, from a value pool rich in near-collisions: both zeros,
// neighbours one ULP apart and repeated values. No slice is empty: JSON
// tells a nil slice from an empty one, which Clone does not preserve and
// which is no difference between states.
func randomState(rng *rand.Rand) *game.State {
	half := 0.5
	pool := []float64{0, math.Copysign(0, -1), half, math.Nextafter(half, 1), math.Nextafter(half, 0), 1, 1.0 / 3}
	val := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.Float64()
		}
		return pool[rng.Intn(len(pool))]
	}
	m := rng.Intn(6) + 1
	st := &game.State{P: make([][]float64, m), X: make([]float64, rng.Intn(m)+1)}
	for i := range st.P {
		st.P[i] = make([]float64, rng.Intn(5)+1)
		for k := range st.P[i] {
			st.P[i][k] = val()
		}
	}
	for i := range st.X {
		st.X[i] = val()
	}
	return st
}

// twin returns a copy of st with at most one small change: none, a flipped
// zero sign, a one-ULP step, or the same values regrouped into other rows.
func twin(rng *rand.Rand, st *game.State) *game.State {
	out := st.Clone()
	// entry picks a random P or X entry, or nil when the state has none.
	entry := func() *float64 {
		var all []*float64
		for i := range out.P {
			for k := range out.P[i] {
				all = append(all, &out.P[i][k])
			}
		}
		for i := range out.X {
			all = append(all, &out.X[i])
		}
		if len(all) == 0 {
			return nil
		}
		return all[rng.Intn(len(all))]
	}
	switch rng.Intn(5) {
	case 1:
		if v := entry(); v != nil {
			*v = math.Copysign(*v, -math.Copysign(1, *v))
		}
	case 2:
		if v := entry(); v != nil {
			*v = math.Nextafter(*v, math.Inf(1))
		}
	case 3:
		// Move the last entry of one row to the front of the next.
		for i := 0; i+1 < len(out.P); i++ {
			if n := len(out.P[i]); n > 0 {
				last := out.P[i][n-1]
				out.P[i] = out.P[i][:n-1]
				out.P[i+1] = append([]float64{last}, out.P[i+1]...)
				break
			}
		}
	case 4:
		if len(out.X) > 0 {
			out.X = out.X[:len(out.X)-1]
		}
	}
	return out
}

// Fold.Hash must split finite states into the same equal/unequal classes
// as the JSON witness it replaced, so every twin-run comparison keeps its
// meaning.
func TestHashMatchesJSONWitnessClasses(t *testing.T) {
	fold := witnessFold(t)
	hash := func(st *game.State) uint32 {
		fold.SetState(st)
		return fold.Hash()
	}
	rng := rand.New(rand.NewSource(7))
	var equal, unequal int
	for n := 0; n < 5000; n++ {
		a := randomState(rng)
		b := twin(rng, a)
		if rng.Intn(8) == 0 {
			b = randomState(rng)
		}
		oracleEq := jsonWitness(a) == jsonWitness(b)
		if got := hash(a) == hash(b); got != oracleEq {
			t.Fatalf("pair %d: Hash equal=%v, JSON witness equal=%v\na=%#v\nb=%#v", n, got, oracleEq, a, b)
		}
		if oracleEq {
			equal++
		} else {
			unequal++
		}
	}
	if equal < 500 || unequal < 500 {
		t.Fatalf("generator covered %d equal and %d unequal pairs, want at least 500 of each", equal, unequal)
	}
}

// The JSON witness collapsed every NaN-bearing state to 0; the binary
// witness tells two different ones apart.
func TestHashSeparatesNaNStates(t *testing.T) {
	fold := witnessFold(t)
	a := game.NewUniformState(2, 8, 0.5)
	b := a.Clone()
	a.P[0][3] = math.NaN()
	b.X[1] = math.NaN()
	if jsonWitness(a) != 0 || jsonWitness(b) != 0 {
		t.Fatalf("JSON witness of NaN states = %08x, %08x, want 0, 0", jsonWitness(a), jsonWitness(b))
	}
	fold.SetState(a)
	ha := fold.Hash()
	fold.SetState(b)
	if hb := fold.Hash(); ha == hb {
		t.Fatalf("two different NaN-bearing states share hash %08x", ha)
	}
}

// cycleFold returns a fold built like the 256-region load-scale cloud
// (cycle graph, P1 band field) and a few rounds of full censuses for it, in
// which each vehicle shares everything with probability share% and picks a
// uniform decision otherwise.
func cycleFold(t *testing.T, m, share int) (*cloud.Fold, []map[int][]int) {
	t.Helper()
	k := lattice.NewPaper().K()
	field, err := scenario.P1BandField(m, k, 0.7, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	nc := scenario.Defaults(scenario.RoleCloud)
	nc.Regions, nc.Beta, nc.X0 = m, 3, 0.5
	nc.Graph = scenario.CycleGraph(m)
	nc.Field = field
	fold, _, err := nc.NewGossipFold()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rounds := make([]map[int][]int, 8)
	for r := range rounds {
		rounds[r] = make(map[int][]int, m)
		for i := 0; i < m; i++ {
			counts := make([]int, k)
			for v := 0; v < 100; v++ {
				if rng.Intn(100) < share {
					counts[0]++
				} else {
					counts[rng.Intn(k)]++
				}
			}
			rounds[r][i] = counts
		}
	}
	return fold, rounds
}

// The witness and the fold step are the hot path of every placement: pin
// their heap cost on a 256-region cycle-graph fold at steady state, so a
// regression fails here instead of showing up as a benchmark diff. Hash
// and the FDS step reuse their buffers; the only allocations left are the
// optimize.Sets built for linearized conditions that are proper
// sub-intervals of [0,1], which the mixed fleet never produces and the
// saturated fleet produces in a few regions.
func TestFoldHotPathAllocs(t *testing.T) {
	const m = 256
	for _, tc := range []struct {
		name      string
		share     int
		maxAllocs float64
	}{
		{"mixed fleet", 55, 0},
		{"saturated fleet", 100, 11},
	} {
		fold, rounds := cycleFold(t, m, tc.share)
		for r := 0; r < 4*len(rounds); r++ {
			if err := fold.Apply(rounds[r%len(rounds)]); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { fold.Hash() }); allocs != 0 {
			t.Errorf("%s: Fold.Hash: %.1f allocs/op, want 0", tc.name, allocs)
		}
		r := 0
		allocs := testing.AllocsPerRun(4*len(rounds), func() {
			if err := fold.Apply(rounds[r%len(rounds)]); err != nil {
				t.Fatal(err)
			}
			r++
		})
		if allocs > tc.maxAllocs {
			t.Errorf("%s: Fold.Apply: %.1f allocs/op over %d regions, want <= %v", tc.name, allocs, m, tc.maxAllocs)
		}
		gametest.CheckFold(t, tc.name, fold.State())
	}
}
