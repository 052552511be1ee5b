package cloud_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/game"
	"repro/internal/gossip"
	"repro/internal/shard"
	"repro/internal/transport"
)

// Every entry point that takes a census from outside the fold admits it
// through AdmitCensus: a negative count (the simplex probe), a wrong
// length and an overflowing total are rejected with ErrBadCensus, and the
// all-zero census of an edge without vehicles is admitted. The cloud and
// shard entry points are fed a round far beyond their skew bound, so an
// admitted census is answered with ErrFutureRound instead of waiting on a
// barrier; the gossip node leads a one-member neighborhood, so its rounds
// complete on its own census.
func TestAdmitCensusEveryEntryPoint(t *testing.T) {
	const k, far = 8, 1 << 30
	fds, _ := cloud.NewTestFDS(t)
	srv, err := cloud.NewServer(fds, game.NewUniformState(2, k, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coord, err := shard.NewCoordinator(shard.Config{ID: 0, Regions: []int{0, 1}, K: k, Upstream: &edge.BatchLink{}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	gfds, _ := cloud.NewTestFDS(t)
	fold, err := cloud.NewFold(gfds, game.NewUniformState(2, k, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	node, err := gossip.NewNode(gossip.Config{
		Edge: 0, Members: []int{0}, Of: 1, Fold: fold,
		PeerDial: func(int) (transport.Conn, error) { return nil, errors.New("no peers") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	gossipRound := 0
	entries := map[string]func(counts []int) error{
		"cloud Submit": func(counts []int) error {
			_, err := srv.Submit(transport.Census{Edge: 0, Round: far, Counts: counts})
			return err
		},
		"cloud SubmitBatch": func(counts []int) error {
			_, err := srv.SubmitBatch(transport.CensusBatch{Round: far, Censuses: []transport.Census{{Edge: 0, Round: far, Counts: counts}}})
			return err
		},
		"cloud SubmitDigest": func(counts []int) error {
			_, err := srv.SubmitDigest(transport.Digest{Of: 1, Members: []int{0}, Rounds: []transport.DigestRound{
				{Round: far, Censuses: []transport.Census{{Edge: 0, Round: far, Counts: counts}}},
			}})
			return err
		},
		"shard Submit": func(counts []int) error {
			_, err := coord.Submit(transport.Census{Edge: 1, Round: far, Counts: counts})
			return err
		},
		"gossip SubmitPeer": func(counts []int) error {
			err := node.SubmitPeer(transport.Census{Edge: 0, Round: gossipRound, Counts: counts})
			if err == nil {
				gossipRound++
			}
			return err
		},
		"gossip LocalRound": func(counts []int) error {
			_, err := node.LocalRound(gossipRound, counts)
			if err == nil {
				gossipRound++
			}
			return err
		},
	}
	cases := []struct {
		name   string
		counts []int
		bad    bool
	}{
		{"negative count", []int{100, -99, 0, 0, 0, 0, 0, 0}, true},
		{"wrong length", []int{1, 2, 3}, true},
		{"overflowing total", []int{math.MaxInt, 1, 0, 0, 0, 0, 0, 0}, true},
		{"all zero", make([]int, k), false},
	}
	for entry, submit := range entries {
		for _, c := range cases {
			err := submit(c.counts)
			admitted := err == nil || errors.Is(err, cloud.ErrFutureRound)
			if c.bad != errors.Is(err, cloud.ErrBadCensus) || c.bad == admitted {
				t.Errorf("%s with %s census %v: error %v, want rejected=%v", entry, c.name, c.counts, err, c.bad)
			}
		}
	}
}
