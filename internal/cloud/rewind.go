package cloud

import (
	"errors"
	"fmt"

	"repro/internal/game"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// ErrFutureRound is returned by Submit for a census whose round is further
// ahead of the latest completed round than the configured skew bound.
// Accepting it would let a clock-skewed (or malicious) edge allocate
// barriers arbitrarily far ahead and grow s.rounds without limit.
var ErrFutureRound = errors.New("cloud: census round beyond skew bound")

// defaultMaxRoundSkew bounds how far ahead of the latest completed round a
// census may be before Submit rejects it with ErrFutureRound.
const defaultMaxRoundSkew = 1024

// lagEntry is one completed round buffered in the fixed-lag fusion window:
// the fold inputs (census set, degraded flag) plus a snapshot of the game
// state and FDS controller memory from just before the round was applied.
// Rewinding to preState/preFDS and re-folding censuses reproduces the
// round's effect exactly; the snapshots of later entries are recomputed
// during replay, so the window is always internally consistent.
type lagEntry struct {
	round    int
	preState *game.State
	preFDS   policy.FDSMemory
	censuses map[int][]int
	degraded bool
}

// correctionSend is one ratio-correction frame bound for an edge session,
// collected under the server lock and pushed after it is released.
type correctionSend struct {
	sess *session.Session
	rc   transport.RatioCorrection
}

// SetFixedLag sets the fixed-lag fusion window to the last n completed
// rounds (0, the default, disables rewinding: late censuses are answered
// from the current state as before). A census arriving for a round still in
// the window rewinds the fold to that round's pre-state, re-applies the
// round with the late census merged in, and re-propagates through every
// buffered round after it — so the published ratio field ends bit-identical
// to what a lossless network would have produced. Call before Open and
// Serve: shrinking a live window discards its oldest entries.
func (s *Server) SetFixedLag(n int) {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lag = n
	s.trimWindowLocked()
	s.metrics.lagDepth.Set(float64(len(s.window)))
}

// FixedLag returns the configured window length (0 = disabled).
func (s *Server) FixedLag() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lag
}

// SetMaxRoundSkew bounds how far ahead of the latest completed round a
// census may be (default 1024). Zero or negative disables the check.
func (s *Server) SetMaxRoundSkew(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxSkew = n
}

// StateHash returns the fold's CRC-32C witness over the current game
// state's bits (see Fold.Hash): two coordinators hold bit-identical ratio
// fields if and only if their hashes match. The same value is exported as
// the consensus_state_hash gauge (exact: every uint32 fits a float64).
func (s *Server) StateHash() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stateHashLocked()
}

func (s *Server) stateHashLocked() uint32 { return s.fold.Hash() }

// pushWindowLocked buffers a round about to be applied: the snapshots are
// taken from the *current* (pre-fold) state. Called with s.mu held, before
// applyRoundLocked.
func (s *Server) pushWindowLocked(round int, censuses map[int][]int, degraded bool) {
	s.window = append(s.window, &lagEntry{
		round:    round,
		preState: s.fold.State().Clone(),
		preFDS:   s.fold.Memory(),
		censuses: censuses,
		degraded: degraded,
	})
	s.trimWindowLocked()
	s.metrics.lagDepth.Set(float64(len(s.window)))
}

// trimWindowLocked drops entries older than the lag allows, clearing the
// vacated slots so the backing array does not pin dead snapshots.
func (s *Server) trimWindowLocked() {
	if len(s.window) <= s.lag {
		return
	}
	n := copy(s.window, s.window[len(s.window)-s.lag:])
	for i := n; i < len(s.window); i++ {
		s.window[i] = nil
	}
	s.window = s.window[:n]
}

// windowIndexLocked returns the window index holding round, or -1.
func (s *Server) windowIndexLocked(round int) int {
	for i, e := range s.window {
		if e.round == round {
			return i
		}
	}
	return -1
}

// refoldLocked rewinds the fold to window entry idx's pre-state and
// re-propagates through every buffered round from there, refreshing each
// entry's snapshots along the way. The fold itself is Fold.Apply — the
// exact code live rounds run — so a replayed history is bit-identical to
// one where the censuses had arrived on time. Called with s.mu held.
func (s *Server) refoldLocked(idx int) error {
	e := s.window[idx]
	s.fold.SetState(e.preState.Clone())
	if err := s.fold.SetMemory(e.preFDS); err != nil {
		return err
	}
	for _, entry := range s.window[idx:] {
		entry.preState = s.fold.State().Clone()
		entry.preFDS = s.fold.Memory()
		if err := s.fold.Apply(entry.censuses); err != nil {
			return fmt.Errorf("re-folding round %d: %w", entry.round, err)
		}
	}
	return nil
}

// handleLateLocked resolves a census for an already-completed round through
// the lag window. It returns handled=false when the round is outside the
// window (lag disabled, round too old, or round abandoned without ever
// completing) — the caller then falls back to the degraded
// answer-from-current-state path. When the census is a byte-identical
// duplicate of what the round already folded, it is absorbed without a
// rewind. Otherwise the fold rewinds, the census is merged last-write-wins,
// subsequent rounds re-propagate, and the corrected round is re-journaled;
// rewound=true tells the caller to collect correction frames (once per
// submission, even when a batch rewinds several times) and push them after
// unlocking. Called with s.mu held.
func (s *Server) handleLateLocked(census transport.Census) (handled, rewound bool, err error) {
	if s.lag <= 0 {
		return false, false, nil
	}
	idx := s.windowIndexLocked(census.Round)
	if idx < 0 {
		return false, false, nil
	}
	e := s.window[idx]
	if prev, ok := e.censuses[census.Edge]; ok && equalCounts(prev, census.Counts) {
		s.metrics.duplicates.Inc()
		return true, false, nil
	}
	span := s.obsv.Span("consensus_rewind",
		obs.A("round", census.Round), obs.A("edge", census.Edge))
	e.censuses[census.Edge] = census.Counts
	if err := s.refoldLocked(idx); err != nil {
		span.End(obs.A("error", err.Error()))
		return true, false, err
	}
	replayed := len(s.window) - idx
	s.correctionSeq++
	s.metrics.rewinds.Inc()
	s.metrics.replayed.Add(int64(replayed))
	s.metrics.stateHash.Set(float64(s.stateHashLocked()))
	s.persistCorrectedLocked(e)
	s.logfLocked("cloud: rewound round %d for edge %d, re-folded %d rounds (correction seq %d)",
		census.Round, census.Edge, replayed, s.correctionSeq)
	span.End(obs.A("replayed", replayed), obs.A("seq", s.correctionSeq))
	return true, true, nil
}

// collectCorrectionsLocked builds one ratio-correction frame per connected
// edge not in exclude (the submitters, whose census replies already carry
// the corrected ratios). Called with s.mu held.
func (s *Server) collectCorrectionsLocked(exclude ...int) []correctionSend {
	if len(s.edgeSess) == 0 {
		return nil
	}
	skip := make(map[int]bool, len(exclude))
	for _, e := range exclude {
		skip[e] = true
	}
	out := make([]correctionSend, 0, len(s.edgeSess))
	for i, sess := range s.edgeSess {
		if skip[i] || i < 0 || i >= s.m {
			continue
		}
		out = append(out, correctionSend{
			sess: sess,
			rc: transport.RatioCorrection{
				Edge:  i,
				Round: s.eng.Latest(),
				Seq:   s.correctionSeq,
				X:     s.fold.X(i),
			},
		})
	}
	s.metrics.corrections.Add(int64(len(out)))
	return out
}

// sendCorrections pushes collected correction frames asynchronously. Send
// failures are expected (the edge may have hung up); the monotonic Seq makes
// redelivery on the next rewind harmless.
func (s *Server) sendCorrections(corrections []correctionSend) {
	for _, c := range corrections {
		c := c
		go func() { _ = c.sess.Send(transport.KindRatioCorrection, c.rc) }()
	}
}

// registerEdgeSess remembers the session an edge reports censuses on, so
// rewinds can push ratio corrections to it.
func (s *Server) registerEdgeSess(edge int, sess *session.Session) {
	if edge < 0 || edge >= s.m {
		return
	}
	s.mu.Lock()
	s.edgeSess[edge] = sess
	s.mu.Unlock()
}

// dropEdgeSess forgets every edge registration pointing at sess (the conn
// closed; a reconnecting edge re-registers with its next census).
func (s *Server) dropEdgeSess(sess *session.Session) {
	s.mu.Lock()
	for edge, es := range s.edgeSess {
		if es == sess {
			delete(s.edgeSess, edge)
		}
	}
	s.mu.Unlock()
}

// equalCounts reports whether two census count vectors are identical.
func equalCounts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
