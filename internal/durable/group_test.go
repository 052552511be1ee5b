package durable

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// flakySync wraps the store's real journal file and fails Sync while armed,
// counting every attempt.
type flakySync struct {
	journalFile
	mu    sync.Mutex
	fail  bool
	syncs int
}

func (f *flakySync) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	if f.fail {
		return errors.New("injected fsync failure")
	}
	return f.journalFile.Sync()
}

func (f *flakySync) setFail(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = v
}

// armFlakySync swaps the store's journal for a Sync-failing wrapper.
func armFlakySync(s *Store) *flakySync {
	s.mu.Lock()
	defer s.mu.Unlock()
	fj := &flakySync{journalFile: s.journal, fail: true}
	s.journal = fj
	return fj
}

// TestGroupCommitSyncFailureFailsEveryWaiter is the multi-waiter error-path
// regression: when the one fsync covering a batch of Appends fails, every
// Append in the batch must report the failure — none may claim durability —
// and the journal stays poisoned for later Appends until a compaction
// rebuilds it, at which point appends work again.
func TestGroupCommitSyncFailureFailsEveryWaiter(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	const writers = 4
	s.SetGroupCommit(writers, 50*time.Millisecond)
	fj := armFlakySync(s)

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = s.Append([]byte(fmt.Sprintf("w%d", w)))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err == nil {
			t.Errorf("writer %d: Append returned nil under a failed group fsync", w)
			continue
		}
		if !strings.Contains(err.Error(), "injected fsync failure") {
			t.Errorf("writer %d: error %v does not carry the fsync failure", w, err)
		}
	}

	// Even after the injected fault clears, the store must stay poisoned: a
	// later successful fsync cannot resurrect the possibly-dropped frames in
	// the middle of the file, so accepting new records would let replay
	// silently truncate them away.
	fj.setFail(false)
	if err := s.Append([]byte("after-failure")); err == nil {
		t.Fatal("Append succeeded on a poisoned journal")
	}

	// A retaining Compact rebuilds the journal file from scratch (write + fsync +
	// rename), which is the one legitimate cure.
	if _, err := s.Compact([]byte("snap"), []byte("kept")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := s.Append([]byte("after-compact")); err != nil {
		t.Fatalf("Append after compaction: %v", err)
	}
	got := replayAll(t, s)
	if len(got) != 2 || string(got[0]) != "kept" || string(got[1]) != "after-compact" {
		t.Fatalf("replayed %q, want [kept after-compact]", got)
	}
}

// TestGroupCommitSyncFailureFailsLaggingWaiter pins the subtler half of the
// contract: a waiter whose frame was written while the failing fsync was
// already in flight (so it was NOT covered by that commit) must also fail —
// its frame sits after the possibly-lost ones, so its durability is void
// even if its own fsync were to succeed.
func TestGroupCommitSyncFailureFailsLaggingWaiter(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	s.SetGroupCommit(2, 20*time.Millisecond)
	fj := armFlakySync(s)

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errCh <- s.Append([]byte(fmt.Sprintf("w%d", w)))
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err == nil {
			t.Error("an Append claimed durability while every fsync was failing")
		}
	}
	// One fsync failure is enough to poison; later appends fail without
	// touching the disk again. Wait out any flush still in flight before
	// sampling the sync count.
	for {
		s.mu.Lock()
		flushing := s.flushing
		s.mu.Unlock()
		if !flushing {
			break
		}
		time.Sleep(time.Millisecond)
	}
	fj.mu.Lock()
	syncsAtPoison := fj.syncs
	fj.mu.Unlock()
	if syncsAtPoison == 0 {
		t.Fatal("no fsync ever ran — the batch never flushed")
	}
	if err := s.Append([]byte("poisoned")); err == nil {
		t.Fatal("Append succeeded on a poisoned journal")
	}
	fj.mu.Lock()
	syncsAfter := fj.syncs
	fj.mu.Unlock()
	if syncsAfter != syncsAtPoison {
		t.Errorf("poisoned Append still drove %d fsyncs", syncsAfter-syncsAtPoison)
	}
}

// Concurrent appenders under group commit must all come back durable: every
// record a returned Append wrote survives a reopen, in a consistent order.
func TestGroupCommitConcurrentAppendsDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.SetGroupCommit(8, time.Millisecond)

	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got := replayAll(t, s2)
	if len(got) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(got), writers*perWriter)
	}
	seen := make(map[string]bool, len(got))
	for _, rec := range got {
		seen[string(rec)] = true
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if key := fmt.Sprintf("w%d-%d", w, i); !seen[key] {
				t.Fatalf("record %s missing after replay", key)
			}
		}
	}
}

// A lone append must not wait for company forever: the window timer flushes
// it. This is the latency floor of the batched mode.
func TestGroupCommitWindowFlushesLoneAppend(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	s.SetGroupCommit(1000, time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- s.Append([]byte("lonely")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lone append never flushed; window timer did not fire")
	}
}

// Compaction must drain pending group records before swapping the journal,
// so a checkpoint+retain cycle under group commit never strands an
// un-synced append.
func TestGroupCommitCompactDrains(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.SetGroupCommit(4, 50*time.Millisecond)
	for i := 0; i < 4; i++ {
		if err := s.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if _, err := s.Compact([]byte("snap"), []byte("kept")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := s.Append([]byte("after")); err != nil {
		t.Fatalf("Append after compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got := replayAll(t, s2)
	if len(got) != 2 || string(got[0]) != "kept" || string(got[1]) != "after" {
		t.Fatalf("replayed %q, want [kept after]", got)
	}
	payload, ok, err := s2.LoadSnapshot()
	if err != nil || !ok || string(payload) != "snap" {
		t.Fatalf("LoadSnapshot = %q, %v, %v", payload, ok, err)
	}
}
