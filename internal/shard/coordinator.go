package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/durable"
	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// defaultMaxRoundSkew bounds how far ahead of the shard's completed
// watermark a census may run before Submit rejects it.
const defaultMaxRoundSkew = 1024

// Config describes one shard coordinator's slice of the consensus tier.
type Config struct {
	// ID is the shard's index into the ring's sorted member names.
	ID int
	// Regions is the region group this shard owns (from Table.Regions).
	Regions []int
	// K is the number of decisions per census (lattice size, validation).
	K int
	// Deadline bounds the shard's round barrier: a round whose owned
	// regions have not all reported within Deadline of the first census is
	// forwarded degraded. Zero waits for the full group.
	Deadline time.Duration
	// Upstream is the batch link to the aggregation tier (required). The
	// coordinator installs its own OnCorrection handler on it.
	Upstream *edge.BatchLink
	// Logf, when non-nil, receives progress and failure logs.
	Logf func(format string, args ...interface{})
}

// Coordinator is one shard of the consensus tier: it owns the round barrier
// for its region group, forwards each completed barrier upstream as a
// single CensusBatch, adopts the aggregator's RatioBatch answer, and only
// then releases the round's waiting edges — so every ratio an edge receives
// is the aggregator's global-fold value, bit-identical to a single-server
// deployment. The shard holds no fold state of its own: its durable journal
// exists to re-forward a batch the aggregator may never have seen when the
// shard crashes between barrier completion and the upstream exchange.
type Coordinator struct {
	cfg   Config
	owned map[int]bool

	mu         sync.Mutex
	eng        *cloud.Engine
	forwarding map[int]bool    // rounds mid-forward (barrier frozen)
	ratios     map[int]float64 // latest adopted ratio per owned region
	edgeSess   map[int]*session.Session
	obsv       *obs.Observer
	metrics    coordinatorMetrics
	acc        *transport.Acceptor
	journal    *cloud.Journal       // see Open; detached = in-memory only
	lastRec    *durable.RoundRecord // newest journaled round, for re-forward
	leases     *cloud.Leases        // membership leases over the owned group
}

type coordinatorMetrics struct {
	rounds          *obs.Counter   // shard_rounds_total
	degraded        *obs.Counter   // shard_degraded_rounds_total
	abandoned       *obs.Counter   // shard_abandoned_rounds_total
	late            *obs.Counter   // shard_late_censuses_total
	duplicates      *obs.Counter   // shard_duplicate_censuses_total
	decodeFailures  *obs.Counter   // shard_decode_failures_total
	forwards        *obs.Counter   // shard_forwards_total
	forwardFailures *obs.Counter   // shard_forward_failures_total
	corrections     *obs.Counter   // shard_ratio_corrections_total
	latestRound     *obs.Gauge     // shard_round_latest
	regionsOwned    *obs.Gauge     // shard_regions_owned
	roundDuration   *obs.Histogram // shard_round_duration_seconds
	recoveries      *obs.Counter   // durable_recoveries_total
	replayRecords   *obs.Counter   // journal_replay_records_total
	journalErrors   *obs.Counter   // durable_journal_errors_total
	checkpointSize  *obs.Gauge     // checkpoint_bytes
	leaseRenewals   *obs.Counter   // lease_renewals_total
	leaseEvictions  *obs.Counter   // lease_evictions_total
	leasesLive      *obs.Gauge     // shard_leases_live
}

func newCoordinatorMetrics(o *obs.Observer) coordinatorMetrics {
	return coordinatorMetrics{
		rounds:          o.Counter("shard_rounds_total", "shard rounds forwarded upstream and answered"),
		degraded:        o.Counter("shard_degraded_rounds_total", "shard rounds forwarded by the deadline with owned regions missing"),
		abandoned:       o.Counter("shard_abandoned_rounds_total", "stale shard barriers evicted when a newer round completed first"),
		late:            o.Counter("shard_late_censuses_total", "censuses for already-forwarded rounds, relayed upstream individually"),
		duplicates:      o.Counter("shard_duplicate_censuses_total", "duplicate censuses absorbed by a pending shard barrier"),
		decodeFailures:  o.Counter("shard_decode_failures_total", "malformed frames dropped by shard connection handlers"),
		forwards:        o.Counter("shard_forwards_total", "census batches forwarded to the aggregation tier"),
		forwardFailures: o.Counter("shard_forward_failures_total", "upstream forwards that failed after the link's retries"),
		corrections:     o.Counter("shard_ratio_corrections_total", "ratio corrections relayed from the aggregator to owned edges"),
		latestRound:     o.Gauge("shard_round_latest", "highest round this shard has forwarded and adopted (-1 before the first)"),
		regionsOwned:    o.Gauge("shard_regions_owned", "regions assigned to this shard by the hash ring"),
		roundDuration:   o.Histogram("shard_round_duration_seconds", "first census to adopted aggregator reply", nil),
		recoveries:      o.Counter("durable_recoveries_total", "coordinator state recoveries from a state directory"),
		replayRecords:   o.Counter("journal_replay_records_total", "journal round records replayed during recovery"),
		journalErrors:   o.Counter("durable_journal_errors_total", "journal appends or checkpoints that failed (state kept in memory)"),
		checkpointSize:  o.Gauge("checkpoint_bytes", "size of the last checkpoint written or recovered"),
		leaseRenewals:   o.Counter("lease_renewals_total", "edge membership lease registrations and renewals"),
		leaseEvictions:  o.Counter("lease_evictions_total", "edges evicted from the shard quorum by lease expiry"),
		leasesLive:      o.Gauge("shard_leases_live", "owned edges currently holding a live membership lease"),
	}
}

// NewCoordinator builds a shard coordinator for its configured region
// group. It installs itself as the Upstream link's correction handler, so
// aggregator rewind corrections for owned regions fan out to the edges that
// report here.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Upstream == nil {
		return nil, fmt.Errorf("shard %d: coordinator needs an upstream batch link", cfg.ID)
	}
	if len(cfg.Regions) == 0 {
		return nil, fmt.Errorf("shard %d: coordinator owns no regions", cfg.ID)
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("shard %d: coordinator needs the lattice size K, got %d", cfg.ID, cfg.K)
	}
	o := obs.New()
	c := &Coordinator{
		cfg:        cfg,
		owned:      make(map[int]bool, len(cfg.Regions)),
		eng:        cloud.NewEngine(),
		forwarding: make(map[int]bool),
		ratios:     make(map[int]float64, len(cfg.Regions)),
		edgeSess:   make(map[int]*session.Session),
		obsv:       o,
		metrics:    newCoordinatorMetrics(o),
		acc:        transport.NewAcceptor(),
		journal:    cloud.NewJournal(),
	}
	c.leases = cloud.NewLeases(&c.mu, c.evictLocked)
	for _, r := range cfg.Regions {
		c.owned[r] = true
	}
	c.metrics.latestRound.Set(-1)
	c.metrics.regionsOwned.Set(float64(len(cfg.Regions)))
	cfg.Upstream.OnCorrection = c.routeCorrection
	return c, nil
}

// Instrument re-points the coordinator's metrics at the given observer.
// Call before Serve.
func (c *Coordinator) Instrument(o *obs.Observer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obsv = o
	c.metrics = newCoordinatorMetrics(o)
	c.metrics.latestRound.Set(float64(c.eng.Latest()))
	c.metrics.regionsOwned.Set(float64(len(c.cfg.Regions)))
}

// Registry returns the registry behind the coordinator's metrics.
func (c *Coordinator) Registry() *obs.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.obsv.Registry()
}

// Latest returns the highest round this shard has forwarded and adopted
// (-1 before the first).
func (c *Coordinator) Latest() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.Latest()
}

// Regions returns the shard's owned region group.
func (c *Coordinator) Regions() []int {
	out := make([]int, len(c.cfg.Regions))
	copy(out, c.cfg.Regions)
	return out
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Serve accepts downstream connections (edge CloudLinks and batching load
// generators) until the listener closes. Run in a goroutine.
func (c *Coordinator) Serve(l transport.Listener) { c.acc.Serve(l, c.handleConn) }

// Close shuts the coordinator down: served listeners stop, pending
// barriers fail, lease timers stop, the durable store is released, and
// connections close.
func (c *Coordinator) Close() {
	c.acc.Close(func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, a := range c.eng.FailAll(transport.ErrClosed) {
			a.Barrier.Span.End(obs.A("closed", true))
		}
		c.leases.Stop()
		c.journal.Close()
	})
}

func (c *Coordinator) handleConn(conn transport.Conn) {
	sess := session.Wrap(conn)
	defer sess.Close()
	defer c.dropEdgeSess(sess)
	dropFrame := func(err error) error {
		c.mu.Lock()
		c.metrics.decodeFailures.Inc()
		c.mu.Unlock()
		c.logf("shard %d: dropping malformed frame: %v", c.cfg.ID, err)
		return nil
	}
	_ = sess.Serve(map[transport.Kind]session.Handler{
		transport.KindCensus: func(m transport.Message) error {
			var census transport.Census
			if err := transport.Decode(m, transport.KindCensus, &census); err != nil {
				return dropFrame(err)
			}
			c.registerEdgeSess(census.Edge, sess)
			x, err := c.Submit(census)
			switch {
			case err == nil:
			case errors.Is(err, cloud.ErrRoundAbandoned):
				c.mu.Lock()
				x = c.ratios[census.Edge]
				c.mu.Unlock()
			case errors.Is(err, transport.ErrClosed):
				return err
			default:
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
			for _, cs := range batch.Censuses {
				c.registerEdgeSess(cs.Edge, sess)
			}
			reply, err := c.SubmitBatch(batch)
			switch {
			case err == nil:
			case errors.Is(err, cloud.ErrRoundAbandoned):
				c.mu.Lock()
				reply = c.ratioBatchLocked(batch)
				c.mu.Unlock()
			case errors.Is(err, transport.ErrClosed):
				return err
			default:
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
			err := c.RenewLease(lease.Edge, time.Duration(lease.TTLMillis)*time.Millisecond)
			if errors.Is(err, transport.ErrClosed) {
				return err
			}
			return sess.Ack(err)
		},
	}, func(m transport.Message) error {
		return dropFrame(fmt.Errorf("unexpected %s frame on shard connection", m.Kind))
	})
}

// validate admits a census from the shard's owned group (cloud.AdmitCensus).
func (c *Coordinator) validate(census transport.Census) error {
	if err := cloud.AdmitCensus(census, c.cfg.K, c.isOwned); err != nil {
		return fmt.Errorf("shard %d: %w", c.cfg.ID, err)
	}
	return nil
}

func (c *Coordinator) isOwned(edge int) bool { return c.owned[edge] }

// forward is one completed barrier on its way upstream, built under the
// lock and executed outside it.
type forward struct {
	round    int
	rb       *cloud.Barrier
	degraded bool
	censuses []transport.Census
}

// Submit records one owned region's census and blocks until the round's
// batch has been forwarded upstream and the aggregator's answer adopted —
// then returns the region's next global-fold sharing ratio. A census for an
// already-forwarded round is relayed upstream as a single-census batch (the
// aggregator absorbs duplicates or rewinds its lag window) and answered
// from the aggregator's reply.
func (c *Coordinator) Submit(census transport.Census) (float64, error) {
	if err := c.validate(census); err != nil {
		return 0, err
	}
	c.mu.Lock()
	if census.Round <= c.eng.Latest() {
		c.metrics.late.Inc()
		c.mu.Unlock()
		reply, err := c.forwardLate(census)
		if err != nil {
			return 0, err
		}
		return c.ratioFor(reply, census.Edge)
	}
	if census.Round > c.eng.Latest()+defaultMaxRoundSkew {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: round %d is beyond latest %d + skew %d",
			cloud.ErrFutureRound, census.Round, c.eng.Latest(), defaultMaxRoundSkew)
	}
	rb, missed, fw := c.insertLocked(census)
	c.mu.Unlock()
	if fw != nil {
		c.finishForward(fw)
	}

	select {
	case <-rb.Done:
		if rb.Err != nil {
			return 0, rb.Err
		}
		if missed {
			// The census arrived while the round's batch was already in
			// flight: relay it upstream on its own so the global fold sees
			// it (rewinding if needed), and answer from that exchange.
			c.mu.Lock()
			c.metrics.late.Inc()
			c.mu.Unlock()
			reply, err := c.forwardLate(census)
			if err != nil {
				return 0, err
			}
			return c.ratioFor(reply, census.Edge)
		}
		c.mu.Lock()
		x := c.ratios[census.Edge]
		c.mu.Unlock()
		return x, nil
	case <-c.acc.Done():
		return 0, transport.ErrClosed
	}
}

// SubmitBatch records several owned regions' censuses in one call (a load
// generator multiplexing a region group over one connection) and answers
// them all from the adopted aggregator reply.
func (c *Coordinator) SubmitBatch(batch transport.CensusBatch) (transport.RatioBatch, error) {
	if len(batch.Censuses) == 0 {
		return transport.RatioBatch{}, fmt.Errorf("shard %d: empty census batch", c.cfg.ID)
	}
	for _, cs := range batch.Censuses {
		if cs.Round != batch.Round {
			return transport.RatioBatch{}, fmt.Errorf("shard %d: batch for round %d carries a census for round %d (edge %d)",
				c.cfg.ID, batch.Round, cs.Round, cs.Edge)
		}
		if err := c.validate(cs); err != nil {
			return transport.RatioBatch{}, err
		}
	}
	c.mu.Lock()
	if batch.Round <= c.eng.Latest() {
		c.metrics.late.Add(int64(len(batch.Censuses)))
		c.mu.Unlock()
		reply, err := c.upstreamReport(batch.Round, batch.Censuses)
		if err != nil {
			return transport.RatioBatch{}, err
		}
		c.adoptReply(reply)
		return c.replyFor(reply, batch)
	}
	if batch.Round > c.eng.Latest()+defaultMaxRoundSkew {
		c.mu.Unlock()
		return transport.RatioBatch{}, fmt.Errorf("%w: round %d is beyond latest %d + skew %d",
			cloud.ErrFutureRound, batch.Round, c.eng.Latest(), defaultMaxRoundSkew)
	}
	var rb *cloud.Barrier
	var fw *forward
	missed := false
	for i, cs := range batch.Censuses {
		b, m, f := c.insertLocked(cs)
		if i == 0 {
			rb = b
		}
		missed = missed || m
		if f != nil {
			fw = f
		}
	}
	c.mu.Unlock()
	if fw != nil {
		c.finishForward(fw)
	}

	select {
	case <-rb.Done:
		if rb.Err != nil {
			return transport.RatioBatch{}, rb.Err
		}
		if missed {
			c.mu.Lock()
			c.metrics.late.Add(int64(len(batch.Censuses)))
			c.mu.Unlock()
			reply, err := c.upstreamReport(batch.Round, batch.Censuses)
			if err != nil {
				return transport.RatioBatch{}, err
			}
			c.adoptReply(reply)
			return c.replyFor(reply, batch)
		}
		c.mu.Lock()
		reply := c.ratioBatchLocked(batch)
		c.mu.Unlock()
		return reply, nil
	case <-c.acc.Done():
		return transport.RatioBatch{}, transport.ErrClosed
	}
}

// insertLocked adds one validated census to its round's barrier, opening
// the barrier if needed, and begins the upstream forward when the quorum
// fills. missed reports that the round's batch was already in flight when
// the census arrived (the caller must relay it upstream itself after the
// barrier resolves). Called with c.mu held.
func (c *Coordinator) insertLocked(census transport.Census) (rb *cloud.Barrier, missed bool, fw *forward) {
	rb, ok := c.eng.Barrier(census.Round)
	if !ok {
		span := c.obsv.Span("shard_round", obs.A("shard", c.cfg.ID), obs.A("round", census.Round))
		rb = c.eng.Open(census.Round, span, c.cfg.Deadline, c.expireRound)
	}
	if c.forwarding[census.Round] {
		return rb, true, nil
	}
	rb.Span.Event("census", obs.A("edge", census.Edge))
	if rb.Add(census.Edge, census.Counts) {
		c.metrics.duplicates.Inc()
	}
	if c.leases.QuorumMet(rb, len(c.cfg.Regions)) {
		fw = c.beginCompleteLocked(census.Round, rb, rb.Size() < len(c.cfg.Regions))
	}
	return rb, false, fw
}

// expireRound forwards a still-pending round degraded when its deadline
// fires.
func (c *Coordinator) expireRound(round int) {
	c.mu.Lock()
	rb, ok := c.eng.Barrier(round)
	if !ok || c.forwarding[round] {
		c.mu.Unlock()
		return
	}
	select {
	case <-rb.Done:
		c.mu.Unlock()
		return
	default:
	}
	fw := c.beginCompleteLocked(round, rb, true)
	c.mu.Unlock()
	if fw != nil {
		c.finishForward(fw)
	}
}

// beginCompleteLocked freezes a filled (or expired) barrier, journals its
// batch — fsynced before the upstream ever sees it, so a crash between here
// and the forward can re-forward on recovery — and returns the forward for
// the caller to execute outside the lock. Called with c.mu held.
func (c *Coordinator) beginCompleteLocked(round int, rb *cloud.Barrier, degraded bool) *forward {
	c.forwarding[round] = true
	fw := &forward{round: round, rb: rb, degraded: degraded, censuses: sortedCensuses(round, rb.Censuses)}
	c.persistRoundLocked(round, rb, degraded)
	return fw
}

// sortedCensuses lists a round's censuses in edge order, the shape of an
// upstream batch.
func sortedCensuses(round int, censuses map[int][]int) []transport.Census {
	edges := make([]int, 0, len(censuses))
	for e := range censuses {
		edges = append(edges, e)
	}
	sort.Ints(edges)
	out := make([]transport.Census, len(edges))
	for i, e := range edges {
		out[i] = transport.Census{Edge: e, Round: round, Counts: censuses[e]}
	}
	return out
}

// finishForward runs one frozen barrier's upstream exchange and resolves
// its waiters: on success the aggregator's ratios are adopted and the round
// completes; on failure the barrier fails without advancing the watermark,
// so redialing edges re-open the round and trigger a fresh forward.
func (c *Coordinator) finishForward(fw *forward) {
	c.mu.Lock()
	c.metrics.forwards.Inc()
	c.mu.Unlock()
	reply, err := c.cfg.Upstream.Report(fw.round, fw.censuses)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.forwarding, fw.round)
	select {
	case <-fw.rb.Done:
		// The barrier resolved while the forward was in flight: a newer
		// round's forward finished first and evicted it, or the coordinator
		// shut down. Its waiters are gone; just adopt whatever the upstream
		// answered and keep the watermark monotonic.
		if err == nil {
			c.adoptReplyLocked(reply)
			if fw.round > c.eng.Latest() {
				c.eng.SetLatest(fw.round)
				c.metrics.latestRound.Set(float64(fw.round))
			}
		}
		return
	default:
	}
	if err != nil {
		c.metrics.forwardFailures.Inc()
		c.logf("shard %d: forwarding round %d failed: %v", c.cfg.ID, fw.round, err)
		c.eng.Fail(fw.round, fmt.Errorf("shard %d: forwarding round %d: %w", c.cfg.ID, fw.round, err))
		fw.rb.Span.End(obs.A("forward_failed", true))
		return
	}
	c.adoptReplyLocked(reply)
	abandoned := c.eng.Complete(fw.round, fw.rb, fw.degraded)
	c.metrics.rounds.Inc()
	c.metrics.latestRound.Set(float64(c.eng.Latest()))
	c.metrics.roundDuration.Observe(time.Since(fw.rb.Opened).Seconds())
	if fw.degraded {
		c.metrics.degraded.Inc()
		c.logf("shard %d: round %d forwarded degraded with %d/%d regions",
			c.cfg.ID, fw.round, fw.rb.Size(), len(c.cfg.Regions))
	}
	fw.rb.Span.End(obs.A("degraded", fw.degraded), obs.A("regions", fw.rb.Size()), obs.A("of", len(c.cfg.Regions)))
	for _, a := range abandoned {
		c.metrics.abandoned.Inc()
		a.Barrier.Span.End(obs.A("abandoned", true), obs.A("superseded_by", fw.round))
	}
}

// forwardLate relays one census for an already-forwarded round upstream as
// a single-census batch and adopts the reply.
func (c *Coordinator) forwardLate(census transport.Census) (transport.RatioBatch, error) {
	reply, err := c.upstreamReport(census.Round, []transport.Census{census})
	if err != nil {
		return transport.RatioBatch{}, err
	}
	c.adoptReply(reply)
	return reply, nil
}

// upstreamReport is one upstream batch exchange with the forward counters
// maintained.
func (c *Coordinator) upstreamReport(round int, censuses []transport.Census) (transport.RatioBatch, error) {
	c.mu.Lock()
	c.metrics.forwards.Inc()
	c.mu.Unlock()
	reply, err := c.cfg.Upstream.Report(round, censuses)
	if err != nil {
		c.mu.Lock()
		c.metrics.forwardFailures.Inc()
		c.mu.Unlock()
		return transport.RatioBatch{}, err
	}
	return reply, nil
}

func (c *Coordinator) adoptReply(reply transport.RatioBatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.adoptReplyLocked(reply)
}

// adoptReplyLocked caches the aggregator's answered ratios for the owned
// regions. Called with c.mu held.
func (c *Coordinator) adoptReplyLocked(reply transport.RatioBatch) {
	for i, e := range reply.Edges {
		if c.owned[e] && i < len(reply.X) {
			c.ratios[e] = reply.X[i]
		}
	}
}

// ratioFor extracts one edge's ratio from an upstream reply.
func (c *Coordinator) ratioFor(reply transport.RatioBatch, edge int) (float64, error) {
	for i, e := range reply.Edges {
		if e == edge && i < len(reply.X) {
			return reply.X[i], nil
		}
	}
	return 0, fmt.Errorf("shard %d: upstream reply missing edge %d", c.cfg.ID, edge)
}

// replyFor re-shapes an upstream reply onto the downstream batch's edges.
func (c *Coordinator) replyFor(reply transport.RatioBatch, batch transport.CensusBatch) (transport.RatioBatch, error) {
	out := transport.RatioBatch{
		Round: batch.Round + 1,
		Edges: make([]int, len(batch.Censuses)),
		X:     make([]float64, len(batch.Censuses)),
	}
	for i, cs := range batch.Censuses {
		x, err := c.ratioFor(reply, cs.Edge)
		if err != nil {
			return transport.RatioBatch{}, err
		}
		out.Edges[i] = cs.Edge
		out.X[i] = x
	}
	return out, nil
}

// ratioBatchLocked answers batch from the cached adopted ratios. Called
// with c.mu held.
func (c *Coordinator) ratioBatchLocked(batch transport.CensusBatch) transport.RatioBatch {
	reply := transport.RatioBatch{
		Round: batch.Round + 1,
		Edges: make([]int, len(batch.Censuses)),
		X:     make([]float64, len(batch.Censuses)),
	}
	for i, cs := range batch.Censuses {
		reply.Edges[i] = cs.Edge
		reply.X[i] = c.ratios[cs.Edge]
	}
	return reply
}

// routeCorrection relays an aggregator rewind correction to the owned
// edge's session, preserving the aggregator-assigned sequence, and adopts
// the corrected ratio into the shard's cache.
func (c *Coordinator) routeCorrection(rc transport.RatioCorrection) {
	if !c.owned[rc.Edge] {
		return
	}
	c.mu.Lock()
	c.ratios[rc.Edge] = rc.X
	c.metrics.corrections.Inc()
	sess := c.edgeSess[rc.Edge]
	c.mu.Unlock()
	if sess != nil {
		go func() { _ = sess.Send(transport.KindRatioCorrection, rc) }()
	}
}

// registerEdgeSess remembers the session an edge reports on, the channel
// relayed corrections go back out.
func (c *Coordinator) registerEdgeSess(edge int, sess *session.Session) {
	if !c.owned[edge] {
		return
	}
	c.mu.Lock()
	c.edgeSess[edge] = sess
	c.mu.Unlock()
}

// dropEdgeSess forgets every edge registration pointing at sess.
func (c *Coordinator) dropEdgeSess(sess *session.Session) {
	c.mu.Lock()
	for edge, es := range c.edgeSess {
		if es == sess {
			delete(c.edgeSess, edge)
		}
	}
	c.mu.Unlock()
}

// RenewLease registers or renews an owned edge's membership lease,
// mirroring the cloud coordinator's quorum semantics within the shard's
// region group (see cloud.Leases).
func (c *Coordinator) RenewLease(edgeID int, ttl time.Duration) error {
	if !c.owned[edgeID] {
		return fmt.Errorf("shard %d: lease from region %d outside owned group", c.cfg.ID, edgeID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	readmitted, err := c.leases.Renew(edgeID, ttl)
	if err != nil {
		return fmt.Errorf("shard %d: %w", c.cfg.ID, err)
	}
	if readmitted {
		c.logf("shard %d: edge %d re-admitted to quorum", c.cfg.ID, edgeID)
	}
	c.metrics.leaseRenewals.Inc()
	c.metrics.leasesLive.Set(float64(c.leases.Live()))
	return nil
}

// evictLocked is the shard's lease-eviction hook: the most advanced pending
// barrier the shrunken quorum satisfies begins its forward under the lock,
// and the returned func finishes it outside. Called with c.mu held.
func (c *Coordinator) evictLocked(edgeID int) func() {
	c.metrics.leaseEvictions.Inc()
	c.metrics.leasesLive.Set(float64(c.leases.Live()))
	c.logf("shard %d: lease of edge %d expired, evicting from quorum", c.cfg.ID, edgeID)
	best, rb := c.eng.Best(func(round int, b *cloud.Barrier) bool {
		return !c.forwarding[round] && c.leases.QuorumMet(b, len(c.cfg.Regions))
	})
	if best < 0 {
		return nil
	}
	fw := c.beginCompleteLocked(best, rb, rb.Size() < len(c.cfg.Regions))
	return func() { c.finishForward(fw) }
}

// shardCheckpoint is the shard's tiny durable snapshot: the forwarded-round
// watermark. The shard holds no fold state — the aggregator owns that — so
// this is all recovery needs beyond the retained round records.
type shardCheckpoint struct {
	Round int `json:"round"`
}

// Open attaches a per-shard durable state directory and recovers the
// forwarded-round watermark a previous process left there. The newest
// journaled batch is re-forwarded upstream in the background: the crash may
// have preceded the upstream exchange, and the aggregator absorbs the
// duplicate (or rewinds) if it had already seen it. Call after Instrument
// and before Serve.
func (c *Coordinator) Open(stateDir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap, err := c.journal.Open(stateDir)
	if err != nil {
		return fmt.Errorf("shard %d: %w", c.cfg.ID, err)
	}
	recovered := snap != nil
	latest := -1
	if snap != nil {
		var cp shardCheckpoint
		if err := json.Unmarshal(snap, &cp); err != nil {
			c.journal.Close()
			return fmt.Errorf("shard %d: checkpoint in %s: %w", c.cfg.ID, stateDir, err)
		}
		latest = cp.Round
		c.metrics.checkpointSize.Set(float64(len(snap)))
	}
	replayed := 0
	var last *durable.RoundRecord
	err = c.journal.Replay(func(rec durable.RoundRecord) error {
		if last == nil || rec.Round >= last.Round {
			r := rec
			last = &r
		}
		if rec.Round > latest {
			latest = rec.Round
			replayed++
		}
		return nil
	})
	if err != nil {
		c.journal.Close()
		return fmt.Errorf("shard %d: journal in %s: %w", c.cfg.ID, stateDir, err)
	}
	if replayed > 0 {
		c.metrics.replayRecords.Add(int64(replayed))
		recovered = true
	}
	c.eng.SetLatest(latest)
	c.lastRec = last
	if recovered {
		c.metrics.recoveries.Inc()
		c.metrics.latestRound.Set(float64(latest))
		c.logf("shard %d: recovered watermark round %d from %s (%d journal records replayed)",
			c.cfg.ID, latest, stateDir, replayed)
	}
	if last != nil {
		// Re-forward the newest batch off the serve path: the crash may have
		// raced the upstream exchange. Idempotent upstream (duplicate absorb
		// / lag-window rewind), so re-forwarding an acknowledged batch is
		// harmless.
		c.acc.Go(func() {
			censuses := sortedCensuses(last.Round, last.Censuses)
			reply, err := c.upstreamReport(last.Round, censuses)
			if err != nil {
				c.logf("shard %d: re-forwarding recovered round %d failed: %v", c.cfg.ID, last.Round, err)
				return
			}
			c.adoptReply(reply)
			c.logf("shard %d: re-forwarded recovered round %d (%d regions)", c.cfg.ID, last.Round, len(censuses))
		})
	}
	return nil
}

// persistRoundLocked journals one frozen barrier's batch, fsynced before
// the upstream forward, and compacts every 32 rounds. Failures are counted
// and logged but do not fail the round. Called with c.mu held; journals
// nothing without an open store.
func (c *Coordinator) persistRoundLocked(round int, rb *cloud.Barrier, degraded bool) {
	rec := durable.RoundRecord{Round: round, Degraded: degraded, Censuses: rb.Censuses}
	if err := c.journal.Append(rec); err != nil {
		c.metrics.journalErrors.Inc()
		c.logf("shard %d: journaling round %d: %v", c.cfg.ID, round, err)
		return
	}
	c.lastRec = &rec
	if c.journal.Due() {
		if err := c.checkpointLocked(); err != nil {
			c.metrics.journalErrors.Inc()
			c.logf("shard %d: compacting after round %d: %v", c.cfg.ID, round, err)
		}
	}
}

// checkpointLocked folds the journal into a watermark checkpoint, retaining
// the newest round record so recovery can always re-forward the last batch.
// Called with c.mu held.
func (c *Coordinator) checkpointLocked() error {
	cp, err := json.Marshal(shardCheckpoint{Round: c.eng.Latest()})
	if err != nil {
		return err
	}
	var retained []durable.RoundRecord
	if c.lastRec != nil {
		retained = append(retained, *c.lastRec)
	}
	n, err := c.journal.Compact(cp, retained)
	if err != nil {
		return err
	}
	c.metrics.checkpointSize.Set(float64(n))
	return nil
}

// Drain shuts the shard down gracefully: the most advanced pending barrier
// forwards degraded with whatever censuses it holds, a final checkpoint is
// written, and the coordinator closes.
func (c *Coordinator) Drain() error {
	c.mu.Lock()
	var fw *forward
	if best, rb := c.eng.Best(func(round int, b *cloud.Barrier) bool { return !c.forwarding[round] }); best >= 0 {
		c.logf("shard %d: draining: forwarding round %d with %d/%d regions",
			c.cfg.ID, best, rb.Size(), len(c.cfg.Regions))
		fw = c.beginCompleteLocked(best, rb, rb.Size() < len(c.cfg.Regions))
	}
	c.mu.Unlock()
	if fw != nil {
		c.finishForward(fw)
	}
	var err error
	c.mu.Lock()
	if c.journal.Attached() {
		err = c.checkpointLocked()
	}
	c.mu.Unlock()
	c.Close()
	return err
}
