package cloud

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/game"
	"repro/internal/transport"
	"repro/internal/transport/session"
)

func TestRenewLeaseValidation(t *testing.T) {
	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.RenewLease(5, time.Second); err == nil {
		t.Error("lease for unknown edge accepted")
	}
	if err := srv.RenewLease(0, 0); err == nil {
		t.Error("lease with zero TTL accepted")
	}
	if err := srv.RenewLease(0, time.Second); err != nil {
		t.Errorf("valid lease rejected: %v", err)
	}
}

// An evicted edge must stop blocking the barrier: the healthy region's
// round completes (degraded) as soon as the dead edge's lease lapses, long
// before the round deadline backstop would fire.
func TestLeaseEvictionUnblocksBarrier(t *testing.T) {
	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetRoundDeadline(30 * time.Second) // backstop far beyond the test

	if err := srv.RenewLease(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.RenewLease(1, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	c0, _ := testCounts(0, 7, 10)
	start := time.Now()
	x, err := srv.Submit(transport.Census{Edge: 0, Round: 0, Counts: c0})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if x < 0 || x > 1 {
		t.Fatalf("ratio %v out of range", x)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("barrier took %v: eviction did not shrink the quorum", elapsed)
	}
	reg := srv.Registry()
	if n := metricValue(t, reg, "lease_evictions_total"); n != 1 {
		t.Fatalf("lease_evictions_total = %v, want 1", n)
	}
	if n := metricValue(t, reg, "consensus_degraded_rounds_total"); n != 1 {
		t.Fatalf("degraded rounds = %v, want 1 (completed without region 1)", n)
	}
	if live := srv.LiveLeases(); len(live) != 1 || live[0] != 0 {
		t.Fatalf("live leases = %v, want [0]", live)
	}
}

// A renewal after eviction re-admits the edge: the next barrier waits for
// it again.
func TestLeaseReadmission(t *testing.T) {
	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := srv.RenewLease(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.RenewLease(1, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(srv.LiveLeases()) == 1 })

	if err := srv.RenewLease(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	live := srv.LiveLeases()
	sort.Ints(live)
	if len(live) != 2 {
		t.Fatalf("live leases after re-admission = %v, want both", live)
	}

	// With both edges live again the barrier must wait for both.
	c0, c1 := testCounts(0, 7, 10)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := srv.Submit(transport.Census{Edge: 0, Round: 0, Counts: c0}); err != nil {
			t.Errorf("edge 0 submit: %v", err)
		}
	}()
	select {
	case <-done:
		t.Fatal("barrier completed without the re-admitted edge")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := srv.Submit(transport.Census{Edge: 1, Round: 0, Counts: c1}); err != nil {
		t.Fatalf("edge 1 submit: %v", err)
	}
	<-done
}

// Lease renewal over the wire: KindLease frames are acked by the
// connection handler, refusals carry the reason back, and the quorum
// reflects the renewal.
func TestLeaseOverInproc(t *testing.T) {
	fds, _ := testFDS(t)
	srv, err := NewServer(fds, game.NewUniformState(2, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInprocNetwork()
	l, err := net.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	conn, err := net.Dial("cloud")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := session.RenewLease(conn, 1, time.Minute, time.Second); err != nil {
		t.Fatalf("RenewLease over wire: %v", err)
	}
	if live := srv.LiveLeases(); len(live) != 1 || live[0] != 1 {
		t.Fatalf("live leases = %v, want [1]", live)
	}

	err = session.RenewLease(conn, 99, time.Minute, time.Second)
	var rej *session.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("lease for unknown edge = %v, want *RejectedError", err)
	}
}

// leaseOwner is a minimal Leases owner: its mutex guards the table, and its
// eviction hook records evictions and whether the after func ran outside
// the lock.
type leaseOwner struct {
	mu      sync.Mutex
	leases  *Leases
	evicted chan int
	after   chan struct{}
}

func newLeaseOwner() *leaseOwner {
	o := &leaseOwner{evicted: make(chan int, 8), after: make(chan struct{}, 8)}
	o.leases = NewLeases(&o.mu, func(member int) func() {
		o.evicted <- member
		return func() {
			// Runs after the table released the owner's lock.
			o.mu.Lock()
			o.mu.Unlock()
			o.after <- struct{}{}
		}
	})
	return o
}

func (o *leaseOwner) renew(t *testing.T, member int, ttl time.Duration) bool {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	readmitted, err := o.leases.Renew(member, ttl)
	if err != nil {
		t.Fatalf("Renew(%d, %v): %v", member, ttl, err)
	}
	return readmitted
}

func (o *leaseOwner) live() []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.leases.LiveIDs()
}

// The lease table on its own: renewal keeps a member live, expiry evicts it
// through the owner's hook (whose after func runs outside the lock), a
// renewal racing the expiry timer re-arms it instead of evicting, and a
// renewal after eviction re-admits the member.
func TestLeaseTable(t *testing.T) {
	o := newLeaseOwner()
	defer func() {
		o.mu.Lock()
		o.leases.Stop()
		o.mu.Unlock()
	}()
	if _, err := o.leases.Renew(0, 0); err == nil {
		t.Fatal("zero TTL accepted")
	}

	// Renew: a fresh grant and a renewal are both plain admissions.
	if o.renew(t, 0, time.Hour) || o.renew(t, 0, time.Hour) {
		t.Fatal("renewal of a live lease reported a re-admission")
	}

	// Expiry: member 1's lease lapses and the hook evicts it.
	o.renew(t, 1, 5*time.Millisecond)
	select {
	case m := <-o.evicted:
		if m != 1 {
			t.Fatalf("evicted member %d, want 1", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lapsed lease was never evicted")
	}
	<-o.after
	if live := o.live(); len(live) != 1 || live[0] != 0 {
		t.Fatalf("live after eviction = %v, want [0]", live)
	}

	// Re-admission: the next renewal of the evicted member reports it.
	if !o.renew(t, 1, time.Hour) {
		t.Fatal("renewal after eviction did not report a re-admission")
	}
	if live := o.live(); len(live) != 2 {
		t.Fatalf("live after re-admission = %v, want [0 1]", live)
	}

	// Renewal racing the timer: member 2's timer fires while the owner holds
	// the lock, and the renewal under that same lock pushes expiry out. The
	// callback must re-arm for the true expiry rather than evict.
	o.renew(t, 2, time.Millisecond)
	o.mu.Lock()
	time.Sleep(20 * time.Millisecond) // the timer fires and blocks on mu
	if _, err := o.leases.Renew(2, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	o.mu.Unlock()
	select {
	case m := <-o.evicted:
		t.Fatalf("member %d evicted although its lease was renewed", m)
	case <-time.After(100 * time.Millisecond):
	}
	select {
	case m := <-o.evicted:
		if m != 2 {
			t.Fatalf("evicted member %d, want 2", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("re-armed lease never expired")
	}
	<-o.after
}

// QuorumMet waits for every member until a lease is granted, then for every
// member holding a live lease.
func TestLeaseTableQuorum(t *testing.T) {
	o := newLeaseOwner()
	defer func() {
		o.mu.Lock()
		o.leases.Stop()
		o.mu.Unlock()
	}()
	b := NewEngine().Open(0, nil, 0, nil)
	b.Add(0, []int{1})
	o.mu.Lock()
	if o.leases.QuorumMet(b, 3) {
		t.Error("quorum met with 1/3 members and no leases")
	}
	if !o.leases.QuorumMet(b, 1) {
		t.Error("quorum not met with every member reported")
	}
	o.mu.Unlock()

	o.renew(t, 0, time.Hour)
	o.renew(t, 2, time.Hour)
	o.mu.Lock()
	if o.leases.QuorumMet(b, 3) {
		t.Error("quorum met while live member 2 has not reported")
	}
	b.Add(2, []int{1})
	if !o.leases.QuorumMet(b, 3) {
		t.Error("quorum not met with every live member reported")
	}
	if o.leases.QuorumMet(NewEngine().Open(0, nil, 0, nil), 3) {
		t.Error("quorum met by an empty barrier")
	}
	o.mu.Unlock()
}
