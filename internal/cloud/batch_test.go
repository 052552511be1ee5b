package cloud

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/game"
	"repro/internal/game/gametest"
	"repro/internal/transport"
)

// TestSubmitBatchEquivalentToSubmits: one SubmitBatch carrying every
// region's census folds to exactly the state individual Submits produce —
// the bit-identity contract the aggregation tier rests on.
func TestSubmitBatchEquivalentToSubmits(t *testing.T) {
	c0 := make([]int, 8)
	c0[0] = 7
	c0[1] = 3
	c1 := make([]int, 8)
	c1[0] = 2
	c1[7] = 8

	fdsA, _ := testFDS(t)
	srvA, err := NewServer(fdsA, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	var wg sync.WaitGroup
	xs := make([]float64, 2)
	for i, counts := range [][]int{c0, c1} {
		i, counts := i, counts
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, err := srvA.Submit(transport.Census{Edge: i, Round: 0, Counts: counts})
			if err != nil {
				t.Errorf("Submit edge %d: %v", i, err)
			}
			xs[i] = x
		}()
	}
	wg.Wait()

	fdsB, _ := testFDS(t)
	srvB, err := NewServer(fdsB, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	reply, err := srvB.SubmitBatch(transport.CensusBatch{Shard: 0, Round: 0, Censuses: []transport.Census{
		{Edge: 0, Round: 0, Counts: c0},
		{Edge: 1, Round: 0, Counts: c1},
	}})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if reply.Round != 1 {
		t.Errorf("reply round = %d, want 1", reply.Round)
	}
	if len(reply.Edges) != 2 || len(reply.X) != 2 {
		t.Fatalf("reply shape = %d edges, %d ratios, want 2/2", len(reply.Edges), len(reply.X))
	}
	for i := range reply.Edges {
		if reply.X[i] != xs[reply.Edges[i]] {
			t.Errorf("edge %d ratio = %v, want %v from individual submits", reply.Edges[i], reply.X[i], xs[reply.Edges[i]])
		}
	}
	if srvA.StateHash() != srvB.StateHash() {
		t.Errorf("state hash %08x (submits) != %08x (batch)", srvA.StateHash(), srvB.StateHash())
	}
	gametest.CheckFold(t, "submits", srvA.State())
	gametest.CheckFold(t, "batch", srvB.State())
}

// TestSubmitBatchValidation: a malformed batch is rejected whole, before
// any census is folded.
func TestSubmitBatchValidation(t *testing.T) {
	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	good := transport.Census{Edge: 0, Round: 0, Counts: make([]int, 8)}

	if _, err := srv.SubmitBatch(transport.CensusBatch{Round: 0}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := srv.SubmitBatch(transport.CensusBatch{Round: 0, Censuses: []transport.Census{
		good, {Edge: 1, Round: 2, Counts: make([]int, 8)},
	}}); err == nil {
		t.Error("mixed-round batch accepted")
	}
	if _, err := srv.SubmitBatch(transport.CensusBatch{Round: 0, Censuses: []transport.Census{
		good, {Edge: 5, Round: 0, Counts: make([]int, 8)},
	}}); err == nil {
		t.Error("unknown-edge batch accepted")
	}
	if _, err := srv.SubmitBatch(transport.CensusBatch{Round: 0, Censuses: []transport.Census{
		good, {Edge: 1, Round: 0, Counts: make([]int, 3)},
	}}); !errors.Is(err, ErrBadCensus) {
		t.Errorf("short-counts batch error = %v, want ErrBadCensus", err)
	}
	// Nothing folded: the server is still on round -1.
	if srv.Latest() != -1 {
		t.Errorf("Latest = %d after rejected batches, want -1", srv.Latest())
	}
}

// TestSubmitBatchLateRewind: a batch arriving after its round completed
// degraded is rewound through the lag window, leaving the fold bit-identical
// to a run where it arrived on time.
func TestSubmitBatchLateRewind(t *testing.T) {
	c0 := make([]int, 8)
	c0[0] = 9
	c0[3] = 1
	c1 := make([]int, 8)
	c1[0] = 4
	c1[6] = 6
	r1 := [][]int{make([]int, 8), make([]int, 8)}
	r1[0][0] = 10
	r1[1][0] = 8
	r1[1][1] = 2
	r2 := [][]int{make([]int, 8), make([]int, 8)}
	r2[0][0] = 6
	r2[0][2] = 4
	r2[1][0] = 10
	batch := func(round int, censuses ...transport.Census) transport.CensusBatch {
		return transport.CensusBatch{Round: round, Censuses: censuses}
	}
	full := func(round int, counts [][]int) transport.CensusBatch {
		return batch(round,
			transport.Census{Edge: 0, Round: round, Counts: counts[0]},
			transport.Census{Edge: 1, Round: round, Counts: counts[1]})
	}

	// Lossless baseline: both regions report every round.
	fdsA, _ := testFDS(t)
	srvA, err := NewServer(fdsA, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	for round, counts := range [][][]int{{c0, c1}, r1, r2} {
		if _, err := srvA.SubmitBatch(full(round, counts)); err != nil {
			t.Fatal(err)
		}
	}

	// Lossy run: edge 1's round-1 census arrives after round 1 completed
	// degraded; round 2 then folds on top of the corrected history.
	fdsB, _ := testFDS(t)
	srvB, err := NewServer(fdsB, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	srvB.SetFixedLag(8)
	srvB.SetRoundDeadline(30 * time.Millisecond)
	if _, err := srvB.SubmitBatch(full(0, [][]int{c0, c1})); err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.SubmitBatch(batch(1,
		transport.Census{Edge: 0, Round: 1, Counts: r1[0]})); err != nil {
		t.Fatal(err)
	}
	if srvB.StateHash() == srvA.StateHash() {
		t.Fatal("hashes match before the straggler arrived — test is vacuous")
	}
	reply, err := srvB.SubmitBatch(batch(1,
		transport.Census{Edge: 1, Round: 1, Counts: r1[1]}))
	if err != nil {
		t.Fatalf("late batch: %v", err)
	}
	if reply.Round != 2 {
		t.Errorf("late reply round = %d, want 2", reply.Round)
	}
	if _, err := srvB.SubmitBatch(full(2, r2)); err != nil {
		t.Fatal(err)
	}
	if srvB.StateHash() != srvA.StateHash() {
		t.Errorf("state hash %08x (rewound) != %08x (lossless)", srvB.StateHash(), srvA.StateHash())
	}
	gametest.CheckFold(t, "lossless", srvA.State())
	gametest.CheckFold(t, "rewound", srvB.State())
	if got := srvCounter(srvB, "consensus_late_censuses_total"); got != 1 {
		t.Errorf("consensus_late_censuses_total = %d, want 1", got)
	}
}
