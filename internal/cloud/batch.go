package cloud

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/transport"
)

// SubmitBatch records a whole region group's censuses for one round in a
// single call — the aggregation tier's entry point for shard coordinators
// and multiplexing load generators. All censuses must carry the batch's
// round; any malformed census rejects the whole batch before anything is
// folded, so a batch is applied atomically or not at all. The call blocks
// like Submit until the round's barrier completes, then answers every
// batched region's next ratio in one RatioBatch. A batch for an
// already-completed round is resolved census-by-census through the lag
// window (rewinds and re-folds exactly as late single censuses do, with
// correction frames for non-batch edges pushed afterward) and answered from
// the resulting state, so a shard forwarding stragglers keeps the global
// fold bit-identical to a lossless network.
func (s *Server) SubmitBatch(batch transport.CensusBatch) (transport.RatioBatch, error) {
	if len(batch.Censuses) == 0 {
		return transport.RatioBatch{}, fmt.Errorf("cloud: empty census batch from shard %d", batch.Shard)
	}
	for _, c := range batch.Censuses {
		if c.Round != batch.Round {
			return transport.RatioBatch{}, fmt.Errorf("cloud: batch for round %d carries a census for round %d (edge %d)",
				batch.Round, c.Round, c.Edge)
		}
		if err := s.admit(c); err != nil {
			return transport.RatioBatch{}, err
		}
	}

	s.mu.Lock()
	if batch.Round <= s.eng.Latest() {
		// The round already completed without (some of) this batch. Resolve
		// each census through the lag window; corrections go to every edge
		// outside the batch, since the reply below carries the batch edges'
		// corrected ratios already.
		rewound := false
		for _, c := range batch.Censuses {
			s.metrics.late.Inc()
			handled, rw, err := s.handleLateLocked(c)
			if err != nil {
				s.mu.Unlock()
				return transport.RatioBatch{}, err
			}
			if !handled && s.lag > 0 {
				s.metrics.beyondLag.Inc()
			}
			rewound = rewound || rw
		}
		var corrections []correctionSend
		if rewound {
			exclude := make([]int, len(batch.Censuses))
			for i, c := range batch.Censuses {
				exclude[i] = c.Edge
			}
			corrections = s.collectCorrectionsLocked(exclude...)
		}
		reply := s.ratioBatchLocked(batch)
		s.mu.Unlock()
		s.sendCorrections(corrections)
		return reply, nil
	}
	if s.maxSkew > 0 && batch.Round > s.eng.Latest()+s.maxSkew {
		s.metrics.future.Inc()
		s.logfLocked("cloud: rejecting batch from shard %d for round %d (latest %d, skew bound %d)",
			batch.Shard, batch.Round, s.eng.Latest(), s.maxSkew)
		s.mu.Unlock()
		return transport.RatioBatch{}, fmt.Errorf("%w: round %d is beyond latest %d + skew %d",
			ErrFutureRound, batch.Round, s.eng.Latest(), s.maxSkew)
	}
	rb, ok := s.eng.Barrier(batch.Round)
	if !ok {
		span := s.obsv.Span("consensus_round", obs.A("round", batch.Round))
		rb = s.eng.Open(batch.Round, span, s.roundDeadline, s.expireRound)
	}
	rb.Span.Event("census_batch", obs.A("shard", batch.Shard), obs.A("edges", len(batch.Censuses)))
	for _, c := range batch.Censuses {
		if rb.Add(c.Edge, c.Counts) {
			// A shard re-forwards the batch it never got an answer for (its
			// own redial loop); last write wins under the one barrier lock.
			s.metrics.duplicates.Inc()
		}
	}
	if s.leases.QuorumMet(rb, s.m) {
		s.completeRoundLocked(batch.Round, rb, rb.Size() < s.m)
	}
	s.mu.Unlock()

	select {
	case <-rb.Done:
		if rb.Err != nil {
			return transport.RatioBatch{}, rb.Err
		}
		s.mu.Lock()
		reply := s.ratioBatchLocked(batch)
		s.mu.Unlock()
		return reply, nil
	case <-s.acc.Done():
		return transport.RatioBatch{}, transport.ErrClosed
	}
}

// ratioBatchLocked answers batch with each batched region's current sharing
// ratio under the step-② reply convention (Round = batch round + 1). Called
// with s.mu held.
func (s *Server) ratioBatchLocked(batch transport.CensusBatch) transport.RatioBatch {
	reply := transport.RatioBatch{
		Round: batch.Round + 1,
		Edges: make([]int, len(batch.Censuses)),
		X:     make([]float64, len(batch.Censuses)),
	}
	for i, c := range batch.Censuses {
		reply.Edges[i] = c.Edge
		reply.X[i] = s.fold.X(c.Edge)
	}
	return reply
}
