package cloud

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
)

// Leases is the membership-lease table shared by every barrier owner (the
// cloud server and the shard coordinators). A member holding a live lease
// counts toward every barrier's quorum; when its lease lapses the owner's
// eviction hook runs — pending barriers may then complete as soon as every
// remaining live member has reported, instead of waiting out the round
// deadline — and the member's next renewal re-admits it. Owners that never
// grant a lease keep the all-members barrier.
//
// Like Engine, the table takes no lock of its own: mu is the owner's mutex,
// which the owner holds around every method call and which the table takes
// only on its expiry timers' goroutines, before calling the hook.
type Leases struct {
	mu      sync.Locker
	evict   func(member int) (after func())
	entries map[int]*lease
	stopped bool
}

// lease is one member's entry: the timer fires at expiry, and a renewal
// pushes expiry out and re-arms it.
type lease struct {
	expiry time.Time
	timer  *time.Timer
	live   bool
}

// NewLeases returns an empty table guarded by the owner's mutex mu. evict
// runs with mu held when a member's lease lapses; the func it returns, if
// any, runs after mu is released (a shard's upstream forward).
func NewLeases(mu sync.Locker, evict func(member int) (after func())) *Leases {
	return &Leases{mu: mu, evict: evict, entries: make(map[int]*lease)}
}

// Renew grants member a lease for ttl, or renews the one it holds, and
// reports whether the member was re-admitted after an eviction. After Stop
// it fails with transport.ErrClosed.
func (l *Leases) Renew(member int, ttl time.Duration) (readmitted bool, err error) {
	if l.stopped {
		return false, transport.ErrClosed
	}
	if ttl <= 0 {
		return false, fmt.Errorf("cloud: lease TTL %v must be positive", ttl)
	}
	e := l.entries[member]
	if e == nil {
		e = &lease{live: true}
		l.entries[member] = e
		e.timer = time.AfterFunc(ttl, func() { l.expire(member) })
	} else {
		readmitted = !e.live
		e.live = true
		e.timer.Reset(ttl)
	}
	e.expiry = time.Now().Add(ttl)
	return readmitted, nil
}

// expire runs when member's timer fires. A renewal that landed while the
// callback waited for the lock re-arms the timer for the true expiry;
// otherwise the member is evicted and the owner's hook runs.
func (l *Leases) expire(member int) {
	l.mu.Lock()
	e := l.entries[member]
	if l.stopped || e == nil || !e.live {
		l.mu.Unlock()
		return
	}
	if remaining := time.Until(e.expiry); remaining > 0 {
		e.timer.Reset(remaining)
		l.mu.Unlock()
		return
	}
	e.live = false
	after := l.evict(member)
	l.mu.Unlock()
	if after != nil {
		after()
	}
}

// Live returns how many members hold a live lease.
func (l *Leases) Live() int {
	n := 0
	for _, e := range l.entries {
		if e.live {
			n++
		}
	}
	return n
}

// LiveIDs returns the members holding a live lease.
func (l *Leases) LiveIDs() []int {
	var ids []int
	for id, e := range l.entries {
		if e.live {
			ids = append(ids, id)
		}
	}
	return ids
}

// QuorumMet reports whether b can complete: all members reported, or —
// once any lease was granted — every member holding a live lease reported.
// A member reporting without a lease still counts toward its own barrier;
// it just cannot be waited on after its lease lapses.
func (l *Leases) QuorumMet(b *Barrier, members int) bool {
	if b.Size() >= members {
		return true
	}
	if len(l.entries) == 0 || b.Size() == 0 {
		return false
	}
	for id, e := range l.entries {
		if !e.live {
			continue
		}
		if _, ok := b.Censuses[id]; !ok {
			return false
		}
	}
	return true
}

// Stop stops every expiry timer and refuses further renewals; a timer
// already waiting for the lock returns without evicting.
func (l *Leases) Stop() {
	l.stopped = true
	for _, e := range l.entries {
		e.timer.Stop()
	}
}

// RenewLease registers or renews an edge server's membership lease: for ttl
// the edge counts toward every round barrier's quorum (see Leases). The
// first renewal switches the server from the all-regions barrier to the
// lease-defined quorum; deployments that never send heartbeats keep the
// original behavior.
func (s *Server) RenewLease(edgeID int, ttl time.Duration) error {
	if !s.hasEdge(edgeID) {
		return fmt.Errorf("cloud: lease from unknown edge %d", edgeID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	readmitted, err := s.leases.Renew(edgeID, ttl)
	if err != nil {
		return err
	}
	if readmitted {
		s.logfLocked("cloud: edge %d re-admitted to quorum", edgeID)
	}
	s.metrics.leaseRenewals.Inc()
	s.metrics.leasesLive.Set(float64(s.leases.Live()))
	return nil
}

// LiveLeases returns the ids of edges currently holding a live lease.
func (s *Server) LiveLeases() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leases.LiveIDs()
}

// evictLocked is the server's lease-eviction hook: the most advanced
// barrier the shrunken quorum now satisfies completes, and its completion
// sweeps the stale ones. Called with s.mu held.
func (s *Server) evictLocked(edgeID int) func() {
	s.metrics.leaseEvictions.Inc()
	s.metrics.leasesLive.Set(float64(s.leases.Live()))
	s.logfLocked("cloud: lease of edge %d expired, evicting from quorum", edgeID)
	if best, rb := s.eng.Best(func(_ int, b *Barrier) bool { return s.leases.QuorumMet(b, s.m) }); best >= 0 {
		s.completeRoundLocked(best, rb, rb.Size() < s.m)
	}
	return nil
}
