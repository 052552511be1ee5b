// Package cloud implements the cloud-server role of Fig. 1 (step S1): it
// collects the per-region decision censuses from the edge servers (step ①),
// rebuilds the game state, runs one FDS round to optimize the sharing
// ratios, and answers each edge server with its region's new ratio
// (step ②).
package cloud

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/game"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// ErrRoundAbandoned is returned by Submit when a round's barrier was
// evicted because a newer round completed before the barrier filled — the
// submitting edge fell behind a partition or restart and should move on to
// the cloud's current round.
var ErrRoundAbandoned = errors.New("cloud: round abandoned")

// ErrBadCensus is returned for a census AdmitCensus rejects: its Counts
// length differs from the number of decisions K, a count is negative, or
// the counts' total overflows.
var ErrBadCensus = errors.New("cloud: malformed census")

// Server is the networked cloud coordinator. Edge servers connect, send one
// Census per round, and receive the next round's Ratio once every region
// has reported — a barrier per round, matching the paper's synchronized
// policy updates. With a round deadline set, a barrier that does not fill
// in time completes in degraded mode: the FDS update runs with the
// last-known shares for the missing regions, so one dead edge cannot stall
// the rest of the system.
type Server struct {
	fold *Fold

	mu            sync.Mutex
	eng           *Engine // round barriers + completed-round watermark
	m             int
	k             int // decisions per census
	roundDeadline time.Duration
	logf          func(format string, args ...interface{})
	obsv          *obs.Observer
	metrics       serverMetrics
	acc           *transport.Acceptor
	journal       *Journal // see Open; detached = in-memory only
	leases        *Leases  // see RenewLease

	// Fixed-lag fusion (see SetFixedLag). window holds the last lag
	// completed rounds in round order; correctionSeq totally orders the
	// ratio corrections rewinds publish; edgeSess maps each edge to the
	// session its censuses arrive on, the channel corrections go back out.
	lag           int
	window        []*lagEntry
	correctionSeq int64
	maxSkew       int
	edgeSess      map[int]*session.Session

	// Digest reconciliation (see SubmitDigest). digestSeen tracks, per
	// pending round, which neighborhoods have reported it; a round folds
	// once every neighborhood has. digestMark[h] is neighborhood h's
	// monotonic escalation watermark: every digest round below it has
	// already been adopted, so a re-sent backlog — an old leader retrying
	// after a lost ack, or a failed-over successor draining the same
	// journal-reconstructed rounds — folds idempotently instead of leaning
	// on the rewind window. Persisted in the checkpoint.
	digestSeen map[int]map[int]bool
	digestMark map[int]int
}

// serverMetrics are the coordinator's registry-backed instruments (see the
// naming convention in package obs).
type serverMetrics struct {
	rounds         *obs.Counter   // consensus_rounds_total
	degraded       *obs.Counter   // consensus_degraded_rounds_total
	abandoned      *obs.Counter   // consensus_abandoned_rounds_total
	late           *obs.Counter   // consensus_late_censuses_total
	decodeFailures *obs.Counter   // consensus_decode_failures_total
	latestRound    *obs.Gauge     // consensus_round_latest
	roundDuration  *obs.Histogram // consensus_round_duration_seconds
	recoveries     *obs.Counter   // durable_recoveries_total
	replayRecords  *obs.Counter   // journal_replay_records_total
	journalErrors  *obs.Counter   // durable_journal_errors_total
	checkpointSize *obs.Gauge     // checkpoint_bytes
	leaseRenewals  *obs.Counter   // lease_renewals_total
	leaseEvictions *obs.Counter   // lease_evictions_total
	leasesLive     *obs.Gauge     // cloud_leases_live
	rewinds        *obs.Counter   // consensus_rewinds_total
	replayed       *obs.Counter   // consensus_replayed_rounds_total
	beyondLag      *obs.Counter   // consensus_censuses_beyond_lag_total
	duplicates     *obs.Counter   // consensus_duplicate_censuses_total
	future         *obs.Counter   // consensus_future_censuses_total
	corrections    *obs.Counter   // consensus_ratio_corrections_total
	lagDepth       *obs.Gauge     // consensus_lag_window_depth
	stateHash      *obs.Gauge     // consensus_state_hash
	digests        *obs.Counter   // consensus_digests_total
	digestRounds   *obs.Counter   // consensus_digest_rounds_total
	digestSkipped  *obs.Counter   // consensus_digest_rounds_skipped_total
}

func newServerMetrics(o *obs.Observer) serverMetrics {
	return serverMetrics{
		rounds:         o.Counter("consensus_rounds_total", "consensus rounds whose FDS update ran (degraded or not)"),
		degraded:       o.Counter("consensus_degraded_rounds_total", "rounds completed by the deadline with at least one region missing"),
		abandoned:      o.Counter("consensus_abandoned_rounds_total", "stale round barriers evicted when a newer round completed first"),
		late:           o.Counter("consensus_late_censuses_total", "censuses for already-completed rounds, answered with the current ratio"),
		decodeFailures: o.Counter("consensus_decode_failures_total", "malformed frames dropped by connection handlers"),
		latestRound:    o.Gauge("consensus_round_latest", "highest completed consensus round (-1 before the first)"),
		roundDuration:  o.Histogram("consensus_round_duration_seconds", "first census to barrier completion", nil),
		recoveries:     o.Counter("durable_recoveries_total", "coordinator state recoveries from a state directory"),
		replayRecords:  o.Counter("journal_replay_records_total", "journal round records replayed during recovery"),
		journalErrors:  o.Counter("durable_journal_errors_total", "journal appends or checkpoints that failed (state kept in memory)"),
		checkpointSize: o.Gauge("checkpoint_bytes", "size of the last checkpoint written or recovered"),
		leaseRenewals:  o.Counter("lease_renewals_total", "edge membership lease registrations and renewals"),
		leaseEvictions: o.Counter("lease_evictions_total", "edges evicted from the barrier quorum by lease expiry"),
		leasesLive:     o.Gauge("cloud_leases_live", "edges currently holding a live membership lease"),
		rewinds:        o.Counter("consensus_rewinds_total", "fixed-lag rewinds triggered by late censuses inside the window"),
		replayed:       o.Counter("consensus_replayed_rounds_total", "rounds re-folded during fixed-lag rewinds"),
		beyondLag:      o.Counter("consensus_censuses_beyond_lag_total", "late censuses outside the lag window, answered from current state"),
		duplicates:     o.Counter("consensus_duplicate_censuses_total", "duplicate censuses absorbed without changing a round's fold"),
		future:         o.Counter("consensus_future_censuses_total", "censuses rejected for exceeding the round skew bound"),
		corrections:    o.Counter("consensus_ratio_corrections_total", "ratio-correction frames published after rewinds"),
		lagDepth:       o.Gauge("consensus_lag_window_depth", "completed rounds currently buffered in the fixed-lag window"),
		stateHash:      o.Gauge("consensus_state_hash", "CRC-32C witness over the game state bits (bit-identity check)"),
		digests:        o.Counter("consensus_digests_total", "gossip digests reconciled from neighborhood leaders"),
		digestRounds:   o.Counter("consensus_digest_rounds_total", "rounds carried by reconciled gossip digests"),
		digestSkipped:  o.Counter("consensus_digest_rounds_skipped_total", "digest rounds below a neighborhood's escalation watermark, adopted idempotently"),
	}
}

// NewServer builds a cloud server steering toward the FDS controller's
// desired field, starting from the given state (typically uniform
// distributions at an initial ratio).
func NewServer(f *policy.FDS, initial *game.State) (*Server, error) {
	fold, err := NewFold(f, initial)
	if err != nil {
		return nil, err
	}
	o := obs.New()
	s := &Server{
		fold:       fold,
		eng:        NewEngine(),
		m:          fold.Regions(),
		k:          fold.Decisions(),
		obsv:       o,
		metrics:    newServerMetrics(o),
		acc:        transport.NewAcceptor(),
		journal:    NewJournal(),
		maxSkew:    defaultMaxRoundSkew,
		edgeSess:   make(map[int]*session.Session),
		digestSeen: make(map[int]map[int]bool),
		digestMark: make(map[int]int),
	}
	s.leases = NewLeases(&s.mu, s.evictLocked)
	s.metrics.latestRound.Set(-1)
	s.metrics.stateHash.Set(float64(s.stateHashLocked()))
	return s, nil
}

// Latest returns the highest completed round (-1 before the first). After
// Open recovered a state directory, this is the round recovery resumed
// from: the next barrier to complete is Latest()+1.
func (s *Server) Latest() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Latest()
}

// Instrument re-points the server's metrics and round spans at the given
// observer, so several components can report through one registry (cpnode's
// /metrics endpoint). Call before Serve; counters already accumulated on the
// default private registry are not carried over.
func (s *Server) Instrument(o *obs.Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obsv = o
	s.metrics = newServerMetrics(o)
	s.metrics.latestRound.Set(float64(s.eng.Latest()))
	s.metrics.lagDepth.Set(float64(len(s.window)))
	s.metrics.stateHash.Set(float64(s.stateHashLocked()))
}

// Registry returns the registry behind the server's metrics (the private
// default unless Instrument installed a shared one).
func (s *Server) Registry() *obs.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obsv.Registry()
}

// SetRoundDeadline bounds every round barrier: a round whose censuses have
// not all arrived within d of the first one completes in degraded mode
// with last-known shares for the missing regions. Zero (the default)
// restores the unbounded barrier.
func (s *Server) SetRoundDeadline(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.roundDeadline = d
}

// SetLogf installs a logger for dropped frames and degraded rounds
// (default: silent, counters only).
func (s *Server) SetLogf(logf func(format string, args ...interface{})) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logf = logf
}

// logfLocked logs through the installed logger. Called with s.mu held.
func (s *Server) logfLocked(format string, args ...interface{}) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// State returns a snapshot of the cloud's current view of the game state.
func (s *Server) State() *game.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fold.State().Clone()
}

// Converged reports whether the current state satisfies the desired field.
func (s *Server) Converged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fold.Converged()
}

// Serve accepts edge-server connections until the listener is torn down or
// the server closes (see transport.Acceptor). Run in a goroutine.
func (s *Server) Serve(l transport.Listener) { s.acc.Serve(l, s.handleConn) }

// Close shuts the server down without flushing a final checkpoint — the
// crash path; see Drain for the graceful one. Served listeners stop,
// pending barriers fail, lease timers stop, the durable store (already
// fsynced through the last completed round) is released, and open
// connections close.
func (s *Server) Close() {
	s.acc.Close(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, a := range s.eng.FailAll(transport.ErrClosed) {
			a.Barrier.Span.End(obs.A("closed", true))
		}
		s.leases.Stop()
		s.journal.Close()
	})
}

// hasEdge reports whether edge is one of the server's regions.
func (s *Server) hasEdge(edge int) bool { return edge >= 0 && edge < s.m }

// admit runs AdmitCensus, counting and logging a malformed census as a
// decode failure.
func (s *Server) admit(c transport.Census) error {
	err := AdmitCensus(c, s.k, s.hasEdge)
	if errors.Is(err, ErrBadCensus) {
		s.mu.Lock()
		s.metrics.decodeFailures.Inc()
		s.logfLocked("cloud: rejecting census: %v", err)
		s.mu.Unlock()
	}
	return err
}

func (s *Server) handleConn(conn transport.Conn) {
	sess := session.Wrap(conn)
	defer sess.Close()
	defer s.dropEdgeSess(sess)
	// dropFrame counts and logs a malformed frame without killing the
	// connection: the edge's next census must still be servable.
	dropFrame := func(err error) error {
		s.mu.Lock()
		s.metrics.decodeFailures.Inc()
		s.logfLocked("cloud: dropping malformed frame: %v", err)
		s.mu.Unlock()
		return nil
	}
	_ = sess.Serve(map[transport.Kind]session.Handler{
		transport.KindCensus: func(m transport.Message) error {
			var census transport.Census
			if err := transport.Decode(m, transport.KindCensus, &census); err != nil {
				return dropFrame(err)
			}
			s.registerEdgeSess(census.Edge, sess)
			x, err := s.Submit(census)
			switch {
			case err == nil:
			case errors.Is(err, ErrRoundAbandoned):
				// The edge fell behind; answer with the region's current
				// ratio so it can catch up instead of hanging.
				s.mu.Lock()
				x = s.fold.X(census.Edge)
				s.mu.Unlock()
			case errors.Is(err, transport.ErrClosed):
				return err
			default:
				// Bad census (e.g. unknown edge): reject it, keep the conn.
				_ = sess.Ack(err)
				return nil
			}
			return sess.Send(transport.KindRatio, transport.Ratio{Round: census.Round + 1, X: x})
		},
		transport.KindCensusBatch: func(m transport.Message) error {
			var batch transport.CensusBatch
			if err := transport.Decode(m, transport.KindCensusBatch, &batch); err != nil {
				return dropFrame(err)
			}
			for _, c := range batch.Censuses {
				s.registerEdgeSess(c.Edge, sess)
			}
			reply, err := s.SubmitBatch(batch)
			switch {
			case err == nil:
			case errors.Is(err, ErrRoundAbandoned):
				// The shard fell behind; answer with the regions' current
				// ratios so it can catch up instead of hanging.
				s.mu.Lock()
				reply = s.ratioBatchLocked(batch)
				s.mu.Unlock()
			case errors.Is(err, transport.ErrClosed):
				return err
			default:
				_ = sess.Ack(err)
				return nil
			}
			return sess.Send(transport.KindRatioBatch, reply)
		},
		transport.KindDigest: func(m transport.Message) error {
			var d transport.Digest
			if err := transport.Decode(m, transport.KindDigest, &d); err != nil {
				return dropFrame(err)
			}
			reply, err := s.SubmitDigest(d)
			switch {
			case err == nil:
			case errors.Is(err, transport.ErrClosed):
				return err
			default:
				// Bad digest (malformed census, skew bound): reject it, keep
				// the conn for the leader's next attempt.
				_ = sess.Ack(err)
				return nil
			}
			return sess.Send(transport.KindRatioBatch, reply)
		},
		transport.KindLease: func(m transport.Message) error {
			var lease transport.Lease
			if err := transport.Decode(m, transport.KindLease, &lease); err != nil {
				return dropFrame(err)
			}
			err := s.RenewLease(lease.Edge, time.Duration(lease.TTLMillis)*time.Millisecond)
			if errors.Is(err, transport.ErrClosed) {
				return err
			}
			return sess.Ack(err)
		},
	}, func(m transport.Message) error {
		return dropFrame(fmt.Errorf("expected %s message, got %s", transport.KindCensus, m.Kind))
	})
}

// Submit records one region's census for a round and blocks until every
// region has reported — or, with a round deadline set, until the deadline
// completes the barrier in degraded mode — then returns the region's next
// sharing ratio. A census for an already-completed round returns the
// region's current ratio immediately, so a reconnecting edge catches up
// without blocking. It is the transport-independent core of the
// coordinator (the in-process simulator calls it directly).
func (s *Server) Submit(census transport.Census) (float64, error) {
	if err := s.admit(census); err != nil {
		return 0, err
	}
	s.mu.Lock()
	if census.Round <= s.eng.Latest() {
		// The round already completed (possibly degraded, without this
		// region). Inside the lag window the fold rewinds and re-propagates
		// so the answer — and every subsequent published ratio — matches
		// what a lossless network would have produced; beyond it the census
		// is folded away and answered from the current state, the degraded
		// legacy path.
		s.metrics.late.Inc()
		handled, rewound, err := s.handleLateLocked(census)
		if err != nil {
			s.mu.Unlock()
			return 0, err
		}
		if !handled && s.lag > 0 {
			s.metrics.beyondLag.Inc()
		}
		var corrections []correctionSend
		if rewound {
			corrections = s.collectCorrectionsLocked(census.Edge)
		}
		x := s.fold.X(census.Edge)
		s.mu.Unlock()
		s.sendCorrections(corrections)
		return x, nil
	}
	if s.maxSkew > 0 && census.Round > s.eng.Latest()+s.maxSkew {
		s.metrics.future.Inc()
		s.logfLocked("cloud: rejecting census from edge %d for round %d (latest %d, skew bound %d)",
			census.Edge, census.Round, s.eng.Latest(), s.maxSkew)
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: round %d is beyond latest %d + skew %d",
			ErrFutureRound, census.Round, s.eng.Latest(), s.maxSkew)
	}
	rb, ok := s.eng.Barrier(census.Round)
	if !ok {
		span := s.obsv.Span("consensus_round", obs.A("round", census.Round))
		rb = s.eng.Open(census.Round, span, s.roundDeadline, s.expireRound)
	}
	rb.Span.Event("census", obs.A("edge", census.Edge))
	if rb.Add(census.Edge, census.Counts) {
		// A CloudLink redial re-submits the census it never got an answer
		// for; last write wins under the one barrier lock.
		s.metrics.duplicates.Inc()
	}
	if s.leases.QuorumMet(rb, s.m) {
		s.completeRoundLocked(census.Round, rb, rb.Size() < s.m)
	}
	s.mu.Unlock()

	select {
	case <-rb.Done:
		if rb.Err != nil {
			return 0, rb.Err
		}
		s.mu.Lock()
		x := s.fold.X(census.Edge)
		s.mu.Unlock()
		return x, nil
	case <-s.acc.Done():
		return 0, transport.ErrClosed
	}
}

// expireRound completes a still-pending round in degraded mode when its
// deadline fires.
func (s *Server) expireRound(round int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rb, ok := s.eng.Barrier(round)
	if !ok {
		return
	}
	select {
	case <-rb.Done:
		return
	default:
	}
	s.completeRoundLocked(round, rb, true)
}

// completeRoundLocked applies the round, releases its waiters, and evicts
// any stale barriers the completion leaves behind (an edge that died
// mid-round must not leak its half-filled barrier). Called with s.mu held.
func (s *Server) completeRoundLocked(round int, rb *Barrier, degraded bool) {
	if s.lag > 0 {
		// Snapshot the pre-fold state so a late census can rewind this round.
		s.pushWindowLocked(round, rb.Censuses, degraded)
	}
	rb.Err = s.fold.Apply(rb.Censuses)
	s.metrics.stateHash.Set(float64(s.stateHashLocked()))
	// Advance the watermark before journaling: a compaction inside persist
	// snapshots Latest() as the checkpoint round, and the state it captures
	// already includes this round's fold.
	if round > s.eng.Latest() {
		s.eng.SetLatest(round)
	}
	// Journal before releasing the waiters: a ratio answered to an edge must
	// never be lost to a crash the edge did not see.
	s.persistRoundLocked(round, rb, degraded)
	abandoned := s.eng.Complete(round, rb, degraded)
	s.metrics.rounds.Inc()
	s.metrics.latestRound.Set(float64(s.eng.Latest()))
	s.metrics.roundDuration.Observe(time.Since(rb.Opened).Seconds())
	if degraded {
		s.metrics.degraded.Inc()
		s.logfLocked("cloud: round %d completed degraded with %d/%d regions", round, rb.Size(), s.m)
	}
	rb.Span.End(obs.A("degraded", degraded), obs.A("regions", rb.Size()), obs.A("of", s.m))
	for _, a := range abandoned {
		s.metrics.abandoned.Inc()
		a.Barrier.Span.End(obs.A("abandoned", true), obs.A("superseded_by", round))
	}
}
