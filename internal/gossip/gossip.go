// Package gossip implements the edge-local consensus data plane: the edges
// of one neighborhood run the consensus rounds among themselves — exchanging
// census frames peer-to-peer over the session layer and folding a local game
// state through the same cloud.Fold core the global coordinator uses — and
// only escalate a compacted Digest frame to the cloud every K rounds. The
// cloud becomes a slow control plane: it reconciles the digests through its
// fixed-lag rewind window and answers with its current view of the members'
// ratios, which the node records for observability but never adopts into
// policy. The policy ratio an edge serves its vehicles is always the local
// fold's — that makes the census stream independent of cloud connectivity,
// so a run that loses the cloud for part of its life produces a bit-identical
// control-plane state after the backlog drains on heal.
//
// Each node journals every completed local round (and the escalation
// watermark) through internal/durable, so a killed node recovers its fold
// bit-identically and the neighborhood leader re-escalates exactly the
// rounds the cloud has not acknowledged.
//
// With Config.FailoverTTL set, leadership survives the leader too: the
// leader heartbeats the neighborhood every TTL/3, every member mirrors the
// escalation backlog, and a member that hears nothing for a full TTL
// advances the leadership epoch — promoting the rendezvous-ring successor
// (members[epoch mod len(members)]), which drains the dead leader's
// unescalated rounds to the cloud in round order. The cloud's per-
// neighborhood digest watermark adopts re-sent rounds idempotently, so a
// restarted old leader (which rejoins tentatively and is demoted by the
// successor's higher-epoch beat) can never double-fold history.
package gossip

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

// ErrClosed is returned by LocalRound after Close.
var ErrClosed = errors.New("gossip: node closed")

// Config assembles a Node. Members must include Edge; the member with the
// smallest id is the neighborhood's leader and the only escalator.
type Config struct {
	// Edge is this node's region id.
	Edge int
	// Members are the region ids of every edge in the neighborhood,
	// including Edge.
	Members []int
	// Neighborhood is this neighborhood's index, 0 <= Neighborhood < Of.
	Neighborhood int
	// Of is the total number of neighborhoods reporting to the cloud.
	Of int
	// EscalateEvery is K: the leader escalates a digest after every K-th
	// completed local round (<=1 escalates every round).
	EscalateEvery int
	// Deadline bounds each local round barrier: a round whose member
	// censuses have not all arrived within Deadline of the first completes
	// in degraded mode (0 = wait forever; a dead peer then stalls the
	// neighborhood).
	Deadline time.Duration
	// FailoverTTL enables leader failover: the leader heartbeats the
	// neighborhood every FailoverTTL/3 and a member that hears nothing for
	// a full TTL advances the leadership epoch, promoting the ring
	// successor (members[epoch mod len(members)]). Every member then
	// retains the escalation backlog so a promoted successor can drain the
	// rounds the dead leader never escalated. 0 disables failover: the
	// smallest member id leads forever (the pre-failover behavior).
	FailoverTTL time.Duration
	// MaxBacklog caps the retained escalation backlog: when more than
	// MaxBacklog completed rounds await cloud acknowledgment the oldest
	// are shed (counted by gossip_backlog_dropped_total) and permanently
	// forgone — a bounded-memory trade that breaks control-plane hash
	// equality for the shed rounds. 0 = unbounded.
	MaxBacklog int
	// ReplyTimeout bounds each peer ack and cloud digest reply wait
	// (0 = forever).
	ReplyTimeout time.Duration
	// Fold is the shared consensus fold core (required). The node takes
	// ownership and serializes access.
	Fold *cloud.Fold
	// PeerDial dials the gossip listener of another member (required).
	PeerDial func(member int) (transport.Conn, error)
	// CloudDial dials the cloud control plane for digest escalation
	// (required for the leader; a fresh connection is dialed per
	// escalation so partitions fail fast and heal cleanly).
	CloudDial func() (transport.Conn, error)
	// Logf, when non-nil, logs degraded rounds, escalation failures, and
	// recovery summaries.
	Logf func(format string, args ...interface{})
}

// Node is one edge's gossip consensus participant.
type Node struct {
	cfg      Config
	members  []int // sorted copy
	failover bool  // cfg.FailoverTTL > 0

	mu        sync.Mutex
	leader    bool // this node leads the current epoch
	epoch     int  // leadership epoch; leader = members[epoch mod len(members)]
	tentative bool // recovered self-leader holding off until a quiet TTL passes
	lastBeat  time.Time
	eng       *cloud.Engine
	fold      *cloud.Fold
	k         int                   // decisions per census
	escalated int                   // next round the leader will escalate (rounds below are acked)
	pending   []durable.RoundRecord // unacked rounds, ascending (every member retains them under failover)
	peers     map[int]*peerLink
	journal   *cloud.Journal // see Open; detached = in-memory only
	cloudX    float64        // latest cloud-published ratio for Edge (observability)
	cloudSeen bool
	obsv      *obs.Observer
	metrics   nodeMetrics

	acc      *transport.Acceptor
	beatOnce sync.Once
}

// nodeMetrics are the node's registry-backed instruments. Counters are
// unlabeled — several nodes instrumented into one registry sum naturally —
// while per-node gauges carry an edge label so they do not clobber each
// other.
type nodeMetrics struct {
	localRounds  *obs.Counter // gossip_local_rounds_total
	degraded     *obs.Counter // gossip_degraded_rounds_total
	peerCensuses *obs.Counter // gossip_peer_censuses_total
	late         *obs.Counter // gossip_late_peer_censuses_total
	duplicates   *obs.Counter // gossip_duplicate_censuses_total
	peerSends    *obs.Counter // gossip_peer_sends_total
	sendFailures *obs.Counter // gossip_peer_send_failures_total
	escalations  *obs.Counter // gossip_digest_escalations_total
	escFailures  *obs.Counter // gossip_escalation_failures_total
	cloudUpdates *obs.Counter // gossip_cloud_ratio_updates_total
	journalErrs  *obs.Counter // gossip_journal_errors_total
	recoveries   *obs.Counter // gossip_recoveries_total
	replayed     *obs.Counter // gossip_replay_records_total
	failovers    *obs.Counter // gossip_failovers_total
	beatsSent    *obs.Counter // gossip_hood_beats_sent_total
	beatsRecv    *obs.Counter // gossip_hood_beats_received_total
	beatFailures *obs.Counter // gossip_hood_beat_failures_total
	backlogDrop  *obs.Counter // gossip_backlog_dropped_total
	latestRound  *obs.Gauge   // gossip_round_latest{edge}
	pendingGauge *obs.Gauge   // gossip_pending_rounds{edge}
	backlogGauge *obs.Gauge   // gossip_escalation_backlog{edge}
	stateHash    *obs.Gauge   // gossip_state_hash{edge}
}

func newNodeMetrics(o *obs.Observer, edge int) nodeMetrics {
	e := strconv.Itoa(edge)
	r := o.Registry()
	return nodeMetrics{
		localRounds:  o.Counter("gossip_local_rounds_total", "local consensus rounds folded by gossip nodes (degraded or not)"),
		degraded:     o.Counter("gossip_degraded_rounds_total", "local rounds completed by the deadline with at least one member missing"),
		peerCensuses: o.Counter("gossip_peer_censuses_total", "censuses received from neighborhood peers"),
		late:         o.Counter("gossip_late_peer_censuses_total", "peer censuses for already-completed local rounds, absorbed"),
		duplicates:   o.Counter("gossip_duplicate_censuses_total", "duplicate peer censuses absorbed without changing a round's fold"),
		peerSends:    o.Counter("gossip_peer_sends_total", "censuses broadcast to neighborhood peers (including re-sends)"),
		sendFailures: o.Counter("gossip_peer_send_failures_total", "peer census broadcasts abandoned after redial attempts"),
		escalations:  o.Counter("gossip_digest_escalations_total", "digests the cloud control plane acknowledged"),
		escFailures:  o.Counter("gossip_escalation_failures_total", "digest escalations that failed (cloud unreachable or rejecting)"),
		cloudUpdates: o.Counter("gossip_cloud_ratio_updates_total", "ratio views adopted from cloud digest replies (observability only)"),
		journalErrs:  o.Counter("gossip_journal_errors_total", "gossip journal appends or checkpoints that failed (state kept in memory)"),
		recoveries:   o.Counter("gossip_recoveries_total", "gossip node state recoveries from a state directory"),
		replayed:     o.Counter("gossip_replay_records_total", "journal round records replayed during gossip recovery"),
		failovers:    o.Counter("gossip_failovers_total", "leadership promotions after a leader's heartbeats went quiet for a full TTL"),
		beatsSent:    o.Counter("gossip_hood_beats_sent_total", "leader liveness heartbeats sent to neighborhood peers"),
		beatsRecv:    o.Counter("gossip_hood_beats_received_total", "leader liveness heartbeats received (stale epochs included)"),
		beatFailures: o.Counter("gossip_hood_beat_failures_total", "heartbeat sends abandoned after redial attempts"),
		backlogDrop:  o.Counter("gossip_backlog_dropped_total", "oldest backlog rounds shed by the max-backlog cap (permanently unescalated)"),
		latestRound:  r.GaugeVec("gossip_round_latest", "highest completed local round (-1 before the first)", "edge").With(e),
		pendingGauge: r.GaugeVec("gossip_pending_rounds", "completed local rounds awaiting cloud acknowledgment", "edge").With(e),
		backlogGauge: r.GaugeVec("gossip_escalation_backlog", "completed rounds retained for digest escalation (with failover every member mirrors the leader's backlog)", "edge").With(e),
		stateHash:    r.GaugeVec("gossip_state_hash", "CRC-32C witness over the node's game state bits (bit-identity check)", "edge").With(e),
	}
}

// NewNode validates cfg and returns an idle node. Call Serve with the
// node's gossip listener, then drive rounds with LocalRound.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Fold == nil {
		return nil, fmt.Errorf("gossip: config needs a fold")
	}
	if cfg.PeerDial == nil {
		return nil, fmt.Errorf("gossip: config needs a peer dialer")
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("gossip: neighborhood has no members")
	}
	members := append([]int(nil), cfg.Members...)
	sort.Ints(members)
	self := false
	for _, m := range members {
		if m == cfg.Edge {
			self = true
		}
		if m < 0 || m >= cfg.Fold.Regions() {
			return nil, fmt.Errorf("gossip: member %d outside the %d-region state", m, cfg.Fold.Regions())
		}
	}
	if !self {
		return nil, fmt.Errorf("gossip: edge %d is not in its own neighborhood %v", cfg.Edge, members)
	}
	if cfg.EscalateEvery <= 0 {
		cfg.EscalateEvery = 1
	}
	o := obs.New()
	n := &Node{
		cfg:      cfg,
		members:  members,
		failover: cfg.FailoverTTL > 0,
		leader:   members[0] == cfg.Edge,
		eng:      cloud.NewEngine(),
		fold:     cfg.Fold,
		k:        cfg.Fold.Decisions(),
		peers:    make(map[int]*peerLink),
		journal:  cloud.NewJournal(),
		obsv:     o,
		metrics:  newNodeMetrics(o, cfg.Edge),
		acc:      transport.NewAcceptor(),
	}
	for _, m := range members {
		if m == cfg.Edge {
			continue
		}
		member := m
		n.peers[m] = &peerLink{
			member: m,
			// A short dial schedule: a dead peer must cost less than the
			// round deadline, not the transport default's two-second cap.
			dialer: &transport.Dialer{
				Dial:        func() (transport.Conn, error) { return cfg.PeerDial(member) },
				MaxAttempts: 4,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
			},
		}
	}
	n.metrics.latestRound.Set(-1)
	n.metrics.stateHash.Set(float64(n.fold.Hash()))
	return n, nil
}

// Instrument re-points the node's metrics at the given observer so several
// nodes (and the cloud) report through one registry. Call before Serve.
func (n *Node) Instrument(o *obs.Observer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.obsv = o
	n.metrics = newNodeMetrics(o, n.cfg.Edge)
	n.metrics.latestRound.Set(float64(n.eng.Latest()))
	n.metrics.pendingGauge.Set(float64(len(n.pending)))
	n.metrics.backlogGauge.Set(float64(len(n.pending)))
	n.metrics.stateHash.Set(float64(n.fold.Hash()))
}

// Leader reports whether this node escalates the neighborhood's digests.
// With failover enabled leadership is epoch-based and can move; a recovered
// self-leader that is still tentatively waiting out its first TTL reports
// false.
func (n *Node) Leader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader && !n.tentative
}

// Epoch returns the node's current leadership epoch (always 0 without
// failover). The epoch's leader is members[epoch mod len(members)].
func (n *Node) Epoch() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// leaderAt returns the member id leading the given epoch.
func (n *Node) leaderAt(epoch int) int {
	return n.members[epoch%len(n.members)]
}

// Latest returns the highest completed local round (-1 before the first).
func (n *Node) Latest() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.Latest()
}

// StateHash returns the CRC-32C witness over the node's local fold state.
func (n *Node) StateHash() uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fold.Hash()
}

// X returns the local fold's current sharing ratio for this node's region —
// the policy the edge serves its vehicles, regardless of cloud connectivity.
func (n *Node) X() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fold.X(n.cfg.Edge)
}

// CloudRatio returns the cloud's last published view of this region's ratio
// and whether any digest reply has been adopted yet. Observability only:
// the local fold's X drives policy.
func (n *Node) CloudRatio() (float64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cloudX, n.cloudSeen
}

// Pending returns how many completed rounds await cloud acknowledgment.
// Without failover only the leader retains a backlog; with failover every
// member mirrors it so a promoted successor can drain the rounds the dead
// leader never escalated.
func (n *Node) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pending)
}

func (n *Node) logf(format string, args ...interface{}) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Serve accepts peer connections on the node's gossip listener until the
// listener is torn down or the node closes. Run in a goroutine. With
// failover enabled, serving also starts the node's liveness loop: the
// leader heartbeats the neighborhood and followers watch for the beats to
// go quiet.
func (n *Node) Serve(l transport.Listener) {
	if n.failover {
		n.beatOnce.Do(func() {
			n.mu.Lock()
			n.lastBeat = time.Now()
			n.mu.Unlock()
			n.acc.Go(n.failoverLoop)
		})
	}
	n.acc.Serve(l, n.handleConn)
}

func (n *Node) handleConn(conn transport.Conn) {
	sess := session.Wrap(conn)
	defer sess.Close()
	_ = sess.Serve(map[transport.Kind]session.Handler{
		transport.KindCensus: func(m transport.Message) error {
			var census transport.Census
			if err := transport.Decode(m, transport.KindCensus, &census); err != nil {
				return sess.Ack(err)
			}
			return sess.Ack(n.SubmitPeer(census))
		},
		transport.KindHoodBeat: func(m transport.Message) error {
			var beat transport.HoodBeat
			if err := transport.Decode(m, transport.KindHoodBeat, &beat); err != nil {
				return sess.Ack(err)
			}
			return sess.Ack(n.submitBeat(beat))
		},
	}, func(m transport.Message) error {
		return sess.Ack(fmt.Errorf("gossip: unexpected %s frame on peer link", m.Kind))
	})
}

// submitBeat absorbs one leader heartbeat. Every well-formed beat is acked
// — including stale-epoch ones, so a demoted leader's in-flight beats drain
// cleanly — but only beats at or above the node's epoch move state: a
// higher epoch is adopted (demoting this node if it thought it led) and the
// expiry clock rewinds. The beat's escalation watermark prunes the mirrored
// backlog: rounds the leader's digests already acked need no successor.
func (n *Node) submitBeat(beat transport.HoodBeat) error {
	if beat.Hood != n.cfg.Neighborhood {
		return fmt.Errorf("gossip: beat for neighborhood %d on edge %d of neighborhood %d",
			beat.Hood, n.cfg.Edge, n.cfg.Neighborhood)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.metrics.beatsRecv.Inc()
	if !n.failover || beat.Epoch < n.epoch || beat.Leader == n.cfg.Edge {
		return nil // stale (or echoed) beat: receipt is all the sender needs
	}
	if beat.Leader != n.leaderAt(beat.Epoch) {
		return fmt.Errorf("gossip: beat claims leader %d for epoch %d, ring says %d",
			beat.Leader, beat.Epoch, n.leaderAt(beat.Epoch))
	}
	if beat.Epoch > n.epoch {
		n.epoch = beat.Epoch
		if n.leader {
			n.leader = false
			n.tentative = false
			n.logf("gossip: edge %d: demoted by epoch %d beat from leader %d",
				n.cfg.Edge, beat.Epoch, beat.Leader)
		}
	}
	n.lastBeat = time.Now()
	if beat.Escalated > n.escalated {
		n.escalated = beat.Escalated
		n.prunePendingLocked()
	}
	return nil
}

// prunePendingLocked drops backlog rounds below the escalation watermark
// and refreshes the backlog gauges. Called with n.mu held.
func (n *Node) prunePendingLocked() {
	keep := n.pending[:0]
	for _, rec := range n.pending {
		if rec.Round >= n.escalated {
			keep = append(keep, rec)
		}
	}
	n.pending = keep
	n.metrics.pendingGauge.Set(float64(len(n.pending)))
	n.metrics.backlogGauge.Set(float64(len(n.pending)))
}

// failoverLoop is the node's liveness clock, ticking at a third of the
// failover TTL. A leading node broadcasts a heartbeat each tick; a
// following node that has heard nothing for a full TTL advances the epoch
// and promotes itself when the ring says it is next, draining the mirrored
// backlog to the cloud. A recovered self-leader stays tentative for one
// quiet TTL first, so a successor elected while it was down can demote it
// before it escalates anything.
func (n *Node) failoverLoop() {
	interval := n.cfg.FailoverTTL / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-n.acc.Done():
			return
		case <-ticker.C:
			n.tickFailover()
		}
	}
}

func (n *Node) tickFailover() {
	n.mu.Lock()
	if n.leader && !n.tentative {
		beat := transport.HoodBeat{
			Hood:      n.cfg.Neighborhood,
			Epoch:     n.epoch,
			Leader:    n.cfg.Edge,
			Escalated: n.escalated,
			TTLMillis: n.cfg.FailoverTTL.Milliseconds(),
		}
		n.mu.Unlock()
		n.broadcastBeat(beat)
		return
	}
	if time.Since(n.lastBeat) < n.cfg.FailoverTTL {
		n.mu.Unlock()
		return
	}
	if n.tentative {
		// A full TTL passed with no higher-epoch beat: the recovered
		// leadership claim stands. (If a successor promoted concurrently its
		// next beat carries a higher epoch and demotes us; the cloud's digest
		// watermark absorbs anything both of us escalate meanwhile.)
		n.tentative = false
		epoch := n.epoch
		n.mu.Unlock()
		n.logf("gossip: edge %d: confirmed leadership of epoch %d after a quiet TTL", n.cfg.Edge, epoch)
		return
	}
	n.epoch++
	n.lastBeat = time.Now()
	if n.leaderAt(n.epoch) != n.cfg.Edge {
		// Someone else's turn: wait a fresh TTL for the successor's first
		// beat before advancing again (it may also be dead).
		n.leader = false
		n.mu.Unlock()
		return
	}
	n.leader = true
	n.tentative = false
	n.metrics.failovers.Inc()
	backlog := len(n.pending)
	epoch := n.epoch
	n.mu.Unlock()
	n.logf("gossip: edge %d: promoted to leader of epoch %d (%d rounds backlogged)",
		n.cfg.Edge, epoch, backlog)
	if backlog > 0 {
		// Drain the dead leader's unescalated rounds immediately — the
		// takeover half of the failover contract. A partitioned cloud fails
		// the dial fast; the backlog stays for the next K boundary or Flush.
		n.acc.Go(func() {
			select {
			case <-n.acc.Done():
				return
			default:
			}
			_ = n.escalate()
		})
	}
}

// broadcastBeat sends one heartbeat to every peer, concurrently. Beats are
// best-effort: an unreachable peer just counts a failure and learns the
// epoch from the next beat that lands.
func (n *Node) broadcastBeat(beat transport.HoodBeat) {
	var wg sync.WaitGroup
	for _, pl := range n.peers {
		wg.Add(1)
		go func(pl *peerLink) {
			defer wg.Done()
			n.metrics.beatsSent.Inc()
			if err := pl.sendBeat(beat, n.cfg.ReplyTimeout); err != nil {
				n.metrics.beatFailures.Inc()
			}
		}(pl)
	}
	wg.Wait()
}

// SubmitPeer folds one peer's census into the pending local round. Unlike
// the cloud's Submit it never blocks: the peer only needs receipt, not the
// round's outcome — each member folds the round itself once its own barrier
// fills.
func (n *Node) SubmitPeer(census transport.Census) error {
	if err := cloud.AdmitCensus(census, n.k, n.isMember); err != nil {
		return fmt.Errorf("gossip: %w", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.metrics.peerCensuses.Inc()
	if census.Round <= n.eng.Latest() {
		// The local round already completed (degraded, or this is a re-send
		// after a redial). The fold moved on; receipt is all the peer needs.
		n.metrics.late.Inc()
		return nil
	}
	rb, ok := n.eng.Barrier(census.Round)
	if !ok {
		span := n.obsv.Span("gossip_round", obs.A("round", census.Round), obs.A("edge", n.cfg.Edge))
		rb = n.eng.Open(census.Round, span, n.cfg.Deadline, n.expireRound)
	}
	if rb.Add(census.Edge, census.Counts) {
		n.metrics.duplicates.Inc()
	}
	if rb.Size() == len(n.members) {
		n.completeLocalLocked(census.Round, rb, false)
	}
	return nil
}

func (n *Node) isMember(edge int) bool {
	for _, m := range n.members {
		if m == edge {
			return true
		}
	}
	return false
}

// expireRound completes a still-pending local round in degraded mode when
// its deadline fires (a dead or partitioned member).
func (n *Node) expireRound(round int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	rb, ok := n.eng.Barrier(round)
	if !ok {
		return
	}
	select {
	case <-rb.Done:
		return
	default:
	}
	n.completeLocalLocked(round, rb, true)
}

// LocalRound runs this node's part of one local consensus round: it adds its
// own census to the round barrier, broadcasts the census to every peer, and
// blocks until the barrier fills (or its deadline degrades it), returning
// the region's next sharing ratio from the local fold. A census for an
// already-completed round returns the current ratio immediately.
func (n *Node) LocalRound(round int, counts []int) (float64, error) {
	if err := cloud.AdmitCensus(transport.Census{Edge: n.cfg.Edge, Round: round, Counts: counts}, n.k, n.isMember); err != nil {
		return 0, fmt.Errorf("gossip: %w", err)
	}
	n.mu.Lock()
	if round <= n.eng.Latest() {
		// Completed while this node was down or behind; serve the current
		// policy so the caller catches up to Latest()+1.
		x := n.fold.X(n.cfg.Edge)
		n.mu.Unlock()
		return x, nil
	}
	rb, ok := n.eng.Barrier(round)
	if !ok {
		span := n.obsv.Span("gossip_round", obs.A("round", round), obs.A("edge", n.cfg.Edge))
		rb = n.eng.Open(round, span, n.cfg.Deadline, n.expireRound)
	}
	if rb.Add(n.cfg.Edge, counts) {
		n.metrics.duplicates.Inc()
	}
	if rb.Size() == len(n.members) {
		n.completeLocalLocked(round, rb, false)
	}
	n.mu.Unlock()

	// Broadcast outside the lock: peer barriers fill from these sends the
	// way ours fills from theirs. Sends run concurrently per peer; each
	// link serializes its own rounds, so per-peer order is preserved.
	var sendWG sync.WaitGroup
	for _, pl := range n.peers {
		sendWG.Add(1)
		go func(pl *peerLink) {
			defer sendWG.Done()
			n.metrics.peerSends.Inc()
			if err := pl.send(n.cfg.Edge, round, counts, n.cfg.ReplyTimeout); err != nil {
				n.metrics.sendFailures.Inc()
				n.logf("gossip: edge %d: census to peer %d round %d: %v", n.cfg.Edge, pl.member, round, err)
			}
		}(pl)
	}
	sendWG.Wait()

	select {
	case <-rb.Done:
		if rb.Err != nil {
			return 0, rb.Err
		}
	case <-n.acc.Done():
		return 0, ErrClosed
	}

	n.mu.Lock()
	x := n.fold.X(n.cfg.Edge)
	boundary := n.leader && !n.tentative && (round+1)%n.cfg.EscalateEvery == 0 && len(n.pending) > 0
	n.mu.Unlock()
	if boundary {
		n.escalate()
	}
	return x, nil
}

// completeLocalLocked folds the round, journals it, and releases its
// waiters. The journal append fsyncs before Done closes, so a ratio served
// to a vehicle is always recoverable — the same write discipline as the
// cloud coordinator. Called with n.mu held.
func (n *Node) completeLocalLocked(round int, rb *cloud.Barrier, degraded bool) {
	rb.Err = n.fold.Apply(rb.Censuses)
	rec := durable.RoundRecord{Round: round, Degraded: degraded, Censuses: rb.Censuses}
	n.persistRoundLocked(rec)
	if n.leader || n.failover {
		// With failover every member mirrors the backlog: a follower promoted
		// after the leader dies must hold the rounds the leader never
		// escalated. Without failover only the leader keeps it.
		n.pending = append(n.pending, rec)
		if n.cfg.MaxBacklog > 0 && len(n.pending) > n.cfg.MaxBacklog {
			shed := len(n.pending) - n.cfg.MaxBacklog
			n.pending = append(n.pending[:0], n.pending[shed:]...)
			// The shed rounds are permanently forgone; moving the watermark
			// past them keeps recovery and beat pruning consistent with that.
			n.escalated = n.pending[0].Round
			n.metrics.backlogDrop.Add(int64(shed))
			n.logf("gossip: edge %d: backlog cap %d shed %d oldest rounds (next escalation starts at %d)",
				n.cfg.Edge, n.cfg.MaxBacklog, shed, n.escalated)
		}
	} else {
		n.escalated = round + 1
	}
	if round > n.eng.Latest() {
		n.eng.SetLatest(round)
	}
	abandoned := n.eng.Complete(round, rb, degraded)
	n.metrics.localRounds.Inc()
	n.metrics.latestRound.Set(float64(n.eng.Latest()))
	n.metrics.pendingGauge.Set(float64(len(n.pending)))
	n.metrics.backlogGauge.Set(float64(len(n.pending)))
	n.metrics.stateHash.Set(float64(n.fold.Hash()))
	if degraded {
		n.metrics.degraded.Inc()
		n.logf("gossip: edge %d: round %d completed degraded with %d/%d members",
			n.cfg.Edge, round, rb.Size(), len(n.members))
	}
	rb.Span.End(obs.A("degraded", degraded), obs.A("members", rb.Size()), obs.A("of", len(n.members)))
	for _, a := range abandoned {
		a.Barrier.Span.End(obs.A("abandoned", true), obs.A("superseded_by", round))
	}
}

// Flush escalates every pending round immediately, regardless of the K
// boundary — the graceful shutdown path, so the control plane holds the
// complete history before the node exits. No-op on nodes not currently
// leading and when nothing is pending.
func (n *Node) Flush() error {
	n.mu.Lock()
	todo := len(n.pending) > 0
	lead := n.leader && !n.tentative
	n.mu.Unlock()
	if !lead || !todo {
		return nil
	}
	return n.escalate()
}

// escalate sends one Digest carrying every pending round to the cloud and,
// on acknowledgment, advances the escalation watermark and compacts the
// journal. A fresh connection is dialed per escalation: a partitioned cloud
// fails the dial fast, the backlog is kept, and the next K boundary (or
// Flush) retries. Runs on the caller's goroutine, never under n.mu.
func (n *Node) escalate() error {
	if n.cfg.CloudDial == nil {
		return fmt.Errorf("gossip: edge %d: no cloud dialer", n.cfg.Edge)
	}
	n.mu.Lock()
	if len(n.pending) == 0 || !n.leader || n.tentative {
		// A demotion can land between the boundary check and here; the new
		// leader owns the backlog now.
		n.mu.Unlock()
		return nil
	}
	d := transport.Digest{
		Neighborhood: n.cfg.Neighborhood,
		Of:           n.cfg.Of,
		Members:      append([]int(nil), n.members...),
		Rounds:       make([]transport.DigestRound, 0, len(n.pending)),
	}
	for _, rec := range n.pending {
		dr := transport.DigestRound{Round: rec.Round, Degraded: rec.Degraded}
		for _, m := range n.members {
			if counts, ok := rec.Censuses[m]; ok {
				dr.Censuses = append(dr.Censuses, transport.Census{Edge: m, Round: rec.Round, Counts: counts})
			}
		}
		d.Rounds = append(d.Rounds, dr)
	}
	last := d.Rounds[len(d.Rounds)-1].Round
	n.mu.Unlock()

	conn, err := n.cfg.CloudDial()
	if err != nil {
		n.metrics.escFailures.Inc()
		n.logf("gossip: edge %d: dialing cloud for digest through round %d: %v", n.cfg.Edge, last, err)
		return err
	}
	reply, err := session.EscalateDigest(conn, d, n.cfg.ReplyTimeout)
	conn.Close()
	if err != nil {
		n.metrics.escFailures.Inc()
		n.logf("gossip: edge %d: escalating digest through round %d: %v", n.cfg.Edge, last, err)
		return err
	}

	n.mu.Lock()
	for i, e := range reply.Edges {
		if e == n.cfg.Edge && i < len(reply.X) {
			n.cloudX = reply.X[i]
			n.cloudSeen = true
			n.metrics.cloudUpdates.Inc()
		}
	}
	// Drop exactly the rounds this digest carried; rounds completed while
	// the escalation was in flight stay pending for the next boundary. The
	// watermark only ever advances: a slow ack racing a larger concurrent
	// escalation must not rewind it.
	keep := n.pending[:0]
	for _, rec := range n.pending {
		if rec.Round > last {
			keep = append(keep, rec)
		}
	}
	n.pending = keep
	if last+1 > n.escalated {
		n.escalated = last + 1
	}
	n.metrics.escalations.Inc()
	n.metrics.pendingGauge.Set(float64(len(n.pending)))
	n.metrics.backlogGauge.Set(float64(len(n.pending)))
	if n.journal.Attached() {
		if err := n.checkpointLocked(); err != nil {
			n.metrics.journalErrs.Inc()
			n.logf("gossip: edge %d: compacting after escalation through round %d: %v", n.cfg.Edge, last, err)
		}
	}
	n.mu.Unlock()
	return nil
}

// Close shuts the node down: the gossip listener stops, pending barriers
// fail, peer links and inbound connections close. It does not Flush;
// callers wanting the backlog on the cloud call Flush first.
func (n *Node) Close() {
	n.acc.Close(func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		for _, a := range n.eng.FailAll(ErrClosed) {
			a.Barrier.Span.End(obs.A("closed", true))
		}
		for _, pl := range n.peers {
			pl.close()
		}
		n.journal.Close()
	})
}

// peerLink maintains one lazily-dialed connection to a neighborhood peer,
// re-dialing and re-sending across connection failures (the CloudLink
// discipline, without the ratio reply).
type peerLink struct {
	member int
	dialer *transport.Dialer

	mu   sync.Mutex
	conn transport.Conn
}

func (p *peerLink) send(edge, round int, counts []int, timeout time.Duration) error {
	return p.exchange(func(conn transport.Conn) error {
		return session.GossipCensus(conn, edge, round, counts, timeout)
	})
}

func (p *peerLink) sendBeat(beat transport.HoodBeat, timeout time.Duration) error {
	return p.exchange(func(conn transport.Conn) error {
		return session.SendHoodBeat(conn, beat, timeout)
	})
}

// exchange runs one acked frame exchange over the link, re-dialing and
// re-sending across connection failures.
func (p *peerLink) exchange(fn func(transport.Conn) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if p.conn == nil {
			conn, err := p.dialer.DialRetry()
			if err != nil {
				return err // the dialer already retried with backoff
			}
			p.conn = conn
		}
		err := fn(p.conn)
		if err == nil {
			return nil
		}
		p.conn.Close()
		p.conn = nil
		if !transport.IsConnError(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("gossip: exchange with peer %d failed after 3 attempts: %w", p.member, lastErr)
}

func (p *peerLink) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}
