package cloud

import (
	"fmt"
	"math"

	"repro/internal/transport"
)

// AdmitCensus is the one admission check every census passes before it can
// reach a barrier or a fold, whichever placement receives it: the cloud's
// Submit, SubmitBatch and SubmitDigest, a shard's Submit and SubmitBatch,
// and a gossip node's SubmitPeer and LocalRound. member reports whether the
// receiver folds the census's edge (every region for the cloud, the owned
// group for a shard, the neighborhood for a gossip node); an edge outside it
// is an unknown-edge error. A census with the wrong number of counts, a
// negative count, or a count total that overflows int is rejected with
// ErrBadCensus: folding it would drop it silently or push the region's
// decision shares off the probability simplex. The all-zero census of an
// edge with no registered vehicles is admitted; Fold.Apply keeps that
// region's last-known shares.
func AdmitCensus(c transport.Census, k int, member func(edge int) bool) error {
	if !member(c.Edge) {
		return fmt.Errorf("cloud: census from unknown edge %d", c.Edge)
	}
	if len(c.Counts) != k {
		return fmt.Errorf("%w: edge %d sent %d counts, lattice has %d decisions",
			ErrBadCensus, c.Edge, len(c.Counts), k)
	}
	total := 0
	for d, n := range c.Counts {
		if n < 0 {
			return fmt.Errorf("%w: edge %d sent count %d for decision %d", ErrBadCensus, c.Edge, n, d)
		}
		if n > math.MaxInt-total {
			return fmt.Errorf("%w: edge %d count total overflows", ErrBadCensus, c.Edge)
		}
		total += n
	}
	return nil
}
