package gossip

import (
	"fmt"

	"repro/internal/durable"
)

// Open attaches a durable state directory to the node and recovers any
// state a previous process left there: the checkpoint restores the fold and
// the escalation watermark, the journal's round records replay onto it
// through the same fold the live rounds use (bit-identical), and the leader
// rebuilds its unacked backlog from the records above the watermark. Call
// before Serve; the node resumes at Latest()+1.
func (n *Node) Open(stateDir string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	snap, err := n.journal.Open(stateDir)
	if err != nil {
		return fmt.Errorf("gossip: %w", err)
	}
	fromCheckpoint := snap != nil
	if snap != nil {
		cp, err := n.fold.Restore(snap)
		if err != nil {
			n.journal.Close()
			return fmt.Errorf("gossip: checkpoint in %s: %w", stateDir, err)
		}
		n.eng.SetLatest(cp.Round)
		n.escalated = cp.Escalated
		if n.failover {
			n.epoch = cp.Epoch
			n.leader = n.leaderAt(n.epoch) == n.cfg.Edge
		}
	}
	retain := n.leader || n.failover
	replayed := 0
	err = n.journal.Replay(func(rec durable.RoundRecord) error {
		if rec.Round <= n.eng.Latest() && fromCheckpoint {
			// The fold effect is already inside the checkpoint — either a
			// record a crash between snapshot rename and journal truncate
			// left behind, or an unacked round the leader's compaction
			// retained. The latter still rebuilds the escalation backlog;
			// re-applying it would double-fold.
			if retain && rec.Round >= n.escalated {
				n.pending = append(n.pending, rec)
			}
			return nil
		}
		if err := n.fold.Apply(rec.Censuses); err != nil {
			return fmt.Errorf("replaying round %d: %w", rec.Round, err)
		}
		n.eng.SetLatest(rec.Round)
		if retain && rec.Round >= n.escalated {
			n.pending = append(n.pending, rec)
		} else if !retain {
			n.escalated = rec.Round + 1
		}
		replayed++
		return nil
	})
	if err != nil {
		n.journal.Close()
		return fmt.Errorf("gossip: journal in %s: %w", stateDir, err)
	}
	if replayed > 0 {
		n.metrics.replayed.Add(int64(replayed))
	}
	if n.failover && n.leader && (fromCheckpoint || replayed > 0) {
		// A recovered leadership claim is tentative: the neighborhood may
		// have promoted a successor while this process was dead, and its
		// higher-epoch beat must win before this node escalates anything.
		// Only a quiet TTL confirms the claim. A genuinely fresh node (empty
		// state directory) skips the hold-off — there is no prior state a
		// successor could be draining.
		n.tentative = true
	}
	if fromCheckpoint || replayed > 0 || len(n.pending) > 0 {
		n.metrics.recoveries.Inc()
		n.metrics.latestRound.Set(float64(n.eng.Latest()))
		n.metrics.pendingGauge.Set(float64(len(n.pending)))
		n.metrics.backlogGauge.Set(float64(len(n.pending)))
		n.metrics.stateHash.Set(float64(n.fold.Hash()))
		n.logf("gossip: edge %d: recovered state through round %d from %s (%d journal records replayed, %d pending escalation)",
			n.cfg.Edge, n.eng.Latest(), stateDir, replayed, len(n.pending))
	}
	return nil
}

// persistRoundLocked journals one completed local round. The append fsyncs
// before the round's waiters release; failures are counted and logged but
// do not fail the round — the node keeps serving from memory. Non-leader
// nodes compact by count (their journal only serves their own recovery);
// the leader compacts on acknowledged escalations instead, because its
// journal doubles as the unacked-digest backlog. Called with n.mu held;
// no-op without an open store.
func (n *Node) persistRoundLocked(rec durable.RoundRecord) {
	if err := n.journal.Append(rec); err != nil {
		n.metrics.journalErrs.Inc()
		n.logf("gossip: edge %d: journaling round %d: %v", n.cfg.Edge, rec.Round, err)
		return
	}
	if !n.leader && n.journal.Due() {
		if err := n.checkpointLocked(); err != nil {
			n.metrics.journalErrs.Inc()
			n.logf("gossip: edge %d: compacting after round %d: %v", n.cfg.Edge, rec.Round, err)
		}
	}
}

// checkpointLocked folds the node's durable state into an atomic snapshot,
// retaining the round records still awaiting cloud acknowledgment so a
// restarted leader re-escalates exactly the unacked backlog. Called with
// n.mu held.
func (n *Node) checkpointLocked() error {
	payload, err := durable.EncodeCheckpoint(durable.Checkpoint{
		Round:     n.eng.Latest(),
		State:     n.fold.State(),
		FDS:       n.fold.Memory(),
		Escalated: n.escalated,
		Epoch:     n.epoch,
	})
	if err != nil {
		return err
	}
	_, err = n.journal.Compact(payload, n.pending)
	return err
}
