// Package durable persists the cloud coordinator's consensus state across
// process death. A state directory holds two files:
//
//	checkpoint.snap — the latest full checkpoint, written atomically
//	                  (tmp file + fsync + rename + directory fsync)
//	journal.wal     — an append-only, fsync-per-append journal of the
//	                  rounds applied since that checkpoint
//
// Both files carry CRC-framed records: a 4-byte big-endian payload length,
// a 4-byte big-endian CRC-32C (Castagnoli) of the payload, then the
// payload. A crash mid-append leaves a torn tail that fails the length or
// CRC check; Replay truncates it away, so recovery always resumes from the
// last record whose fsync completed. Compact replaces the checkpoint and
// truncates the journal; a crash between those two steps only leaves
// already-checkpointed records in the journal, which the replayer must
// skip by round number.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	snapshotName = "checkpoint.snap"
	journalName  = "journal.wal"

	frameHeader = 8 // 4-byte payload length + 4-byte CRC-32C

	// MaxRecordBytes bounds a single record (16 MiB). A length prefix
	// beyond it is treated as corruption, not an allocation request.
	MaxRecordBytes = 16 << 20
)

// ErrStoreClosed is returned by operations on a closed Store.
var ErrStoreClosed = errors.New("durable: store closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// journalFile is the slice of *os.File the journal path uses. Tests
// substitute implementations whose Sync fails on demand to exercise the
// fsync-failure poisoning below.
type journalFile interface {
	io.Closer
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
}

// Store owns one state directory. All methods are safe for concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	journal journalFile
	size    int64 // current journal length (all complete records)

	// Group commit (see SetGroupCommit). With groupN <= 1 every Append
	// fsyncs on its own, the historical behavior. Otherwise appends write
	// their frames immediately and block on flushed until one fsync — run
	// by whichever appender trips the count threshold, or by the window
	// timer — covers them. writeSeq counts frames written into the file,
	// syncedSeq frames a completed fsync made durable.
	//
	// A failed fsync poisons the journal (flushErr): every Append batched
	// under the failed commit AND every later Append reports the failure,
	// until a Compact rebuilds the journal file. The blanket
	// rule is not conservatism: after a failed fsync the kernel may mark the
	// dirty pages clean without writing them, so a later successful fsync
	// covering later frames would leave a corrupt middle that replay
	// truncates at — silently discarding records whose Append returned nil.
	groupN      int
	groupWindow time.Duration
	flushed     *sync.Cond
	flushing    bool
	writeSeq    int64
	syncedSeq   int64
	flushErr    error
	timer       *time.Timer
	timerArmed  bool
}

// Open creates the state directory if needed and opens (or creates) its
// journal. Call Replay before the first Append, so a torn tail from a
// previous crash is truncated rather than appended after.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("durable: state directory must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create state dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: stat journal: %w", err)
	}
	s := &Store{dir: dir, journal: f, size: st.Size()}
	s.flushed = sync.NewCond(&s.mu)
	return s, nil
}

// defaultGroupWindow bounds how long a lone record waits for company before
// its fsync runs anyway.
const defaultGroupWindow = 2 * time.Millisecond

// SetGroupCommit batches journal fsyncs: up to n pending Append calls share
// one fsync, flushed as soon as n records are pending or after window at
// the latest (window <= 0 uses a 2ms default). Append's durability contract
// is unchanged — it still blocks until the fsync covering its record
// completes — only the per-record fsync floor is amortized away, which is
// what lets a gossip node journal every local round without paying a disk
// round-trip per round. n <= 1 restores the historical fsync-per-append
// behavior. Safe to call only before the first Append.
func (s *Store) SetGroupCommit(n int, window time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if window <= 0 {
		window = defaultGroupWindow
	}
	s.groupN = n
	s.groupWindow = window
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// JournalSize returns the journal's current length in bytes.
func (s *Store) JournalSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// LoadSnapshot returns the checkpoint payload, or ok=false when no
// checkpoint has been written yet. A checkpoint that fails its CRC is an
// error: unlike a torn journal tail, a torn checkpoint means the atomic
// rename protocol was violated (or the disk corrupted it) and silently
// restarting from scratch would discard real state.
func (s *Store) LoadSnapshot() (payload []byte, ok bool, err error) {
	path := filepath.Join(s.dir, snapshotName)
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("durable: read snapshot: %w", err)
	}
	payload, n, frameOK := parseFrame(b)
	if !frameOK || n != len(b) {
		return nil, false, fmt.Errorf("durable: snapshot %s is corrupt", path)
	}
	return payload, true, nil
}

// Replay walks the journal's complete records in append order, passing each
// payload to fn, and truncates any torn tail left by a crash mid-append. It
// returns the number of records replayed. An error from fn aborts the walk.
func (s *Store) Replay(fn func(payload []byte) error) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return 0, ErrStoreClosed
	}
	buf := make([]byte, s.size)
	if s.size > 0 {
		if _, err := s.journal.ReadAt(buf, 0); err != nil {
			return 0, fmt.Errorf("durable: read journal: %w", err)
		}
	}
	off, replayed := 0, 0
	for off < len(buf) {
		payload, n, ok := parseFrame(buf[off:])
		if !ok {
			break // torn or corrupt tail: everything before it is good
		}
		if err := fn(payload); err != nil {
			return replayed, err
		}
		replayed++
		off += n
	}
	if int64(off) < s.size {
		if err := s.journal.Truncate(int64(off)); err != nil {
			return replayed, fmt.Errorf("durable: truncate torn tail: %w", err)
		}
		if err := s.journal.Sync(); err != nil {
			return replayed, fmt.Errorf("durable: sync journal: %w", err)
		}
		s.size = int64(off)
	}
	return replayed, nil
}

// Append frames the payload, writes it at the journal's end, and fsyncs
// before returning: once Append returns nil the record survives kill -9.
// Under SetGroupCommit the fsync may be shared with other pending appends,
// but the durability contract is the same.
func (s *Store) Append(payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("durable: record of %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	frame := appendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return ErrStoreClosed
	}
	if s.flushErr != nil {
		return fmt.Errorf("durable: journal poisoned by earlier sync failure: %w", s.flushErr)
	}
	if _, err := s.journal.WriteAt(frame, s.size); err != nil {
		return fmt.Errorf("durable: append journal: %w", err)
	}
	if s.groupN <= 1 {
		if err := s.journal.Sync(); err != nil {
			s.flushErr = err
			return fmt.Errorf("durable: sync journal: %w", err)
		}
		s.size += int64(len(frame))
		return nil
	}
	s.size += int64(len(frame))
	s.writeSeq++
	seq := s.writeSeq
	if s.writeSeq-s.syncedSeq >= int64(s.groupN) && !s.flushing {
		s.flushLocked()
	} else {
		s.armTimerLocked()
	}
	// A waiter that already sat through one flush without being covered (it
	// wrote its frame while that fsync was in flight) leads the next flush
	// immediately: it has waited a full disk round-trip, which is all the
	// deadline was bounding. Only a first-round waiter holds out for the
	// count threshold or the window timer.
	waited := false
	for s.syncedSeq < seq {
		if s.journal == nil {
			return ErrStoreClosed
		}
		if s.flushErr != nil {
			return fmt.Errorf("durable: sync journal: %w", s.flushErr)
		}
		if !s.flushing && (waited || s.writeSeq-s.syncedSeq >= int64(s.groupN)) {
			s.flushLocked()
			continue
		}
		s.flushed.Wait()
		waited = true
	}
	if s.flushErr != nil {
		return fmt.Errorf("durable: sync journal: %w", s.flushErr)
	}
	return nil
}

// flushLocked runs one group fsync covering every record written so far.
// The lock is released for the fsync itself, so appenders keep writing
// frames (the next group) while the disk works. Called with s.mu held;
// returns with it held.
func (s *Store) flushLocked() {
	target := s.writeSeq
	s.flushing = true
	s.timerArmed = false
	j := s.journal
	s.mu.Unlock()
	err := j.Sync()
	s.mu.Lock()
	s.flushing = false
	if target > s.syncedSeq {
		s.syncedSeq = target
	}
	if err != nil && s.flushErr == nil {
		s.flushErr = err
	}
	s.flushed.Broadcast()
}

// armTimerLocked schedules the window flush for the current pending group,
// if one is not already scheduled. Called with s.mu held.
func (s *Store) armTimerLocked() {
	if s.timerArmed {
		return
	}
	s.timerArmed = true
	if s.timer == nil {
		s.timer = time.AfterFunc(s.groupWindow, s.windowFlush)
		return
	}
	s.timer.Reset(s.groupWindow)
}

// windowFlush is the timer path: flush whatever is pending when the group
// window closes, unless a count-triggered flush is already running (its
// completion wakes the waiters this timer was armed for).
func (s *Store) windowFlush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timerArmed = false
	if s.journal == nil || s.flushing || s.flushErr != nil || s.writeSeq <= s.syncedSeq {
		return
	}
	s.flushLocked()
}

// drainLocked waits out any in-flight group flush and fsyncs any remaining
// pending records, so callers about to swap or truncate the journal never
// race a concurrent fsync or strand an un-synced append. Called with s.mu
// held.
func (s *Store) drainLocked() {
	for s.flushing {
		s.flushed.Wait()
	}
	if s.journal != nil && s.writeSeq > s.syncedSeq {
		err := s.journal.Sync()
		s.syncedSeq = s.writeSeq
		if err != nil && s.flushErr == nil {
			s.flushErr = err
		}
		s.flushed.Broadcast()
	}
}

// Compact atomically replaces the checkpoint with payload and then rewrites
// the journal to hold exactly the retained records, returning the
// checkpoint size in bytes. The snapshot is made durable first, so a crash
// between the two steps loses nothing: the journal still holds records the
// new checkpoint already covers, and the replayer skips them by round
// number.
//
// With no retained records the journal is truncated in place. Otherwise
// (a fixed-lag coordinator checkpoints the state *before* its rewind window
// and must keep the window's round records journaled) the new journal is
// built in a temp file (write + fsync) and renamed over the old one, so the
// swap is atomic: a crash before the rename leaves the old journal, whose
// records the replayer skips or re-applies idempotently; a crash after it
// leaves exactly the retained records. Either way the rebuilt journal lifts
// any fsync-failure poison, since every record it holds is durable.
func (s *Store) Compact(payload []byte, retained ...[]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return 0, ErrStoreClosed
	}
	s.drainLocked()
	n, err := s.writeSnapshotLocked(payload)
	if err != nil {
		return 0, err
	}
	var frames []byte
	for _, rec := range retained {
		if len(rec) > MaxRecordBytes {
			return n, fmt.Errorf("durable: retained record of %d bytes exceeds limit %d", len(rec), MaxRecordBytes)
		}
		frames = appendFrame(frames, rec)
	}
	if len(frames) == 0 {
		if err := s.journal.Truncate(0); err != nil {
			return n, fmt.Errorf("durable: truncate journal: %w", err)
		}
		if err := s.journal.Sync(); err != nil {
			return n, fmt.Errorf("durable: sync journal: %w", err)
		}
	} else {
		tmp := filepath.Join(s.dir, journalName+".tmp")
		f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
		if err != nil {
			return n, fmt.Errorf("durable: create journal tmp: %w", err)
		}
		if _, err := f.Write(frames); err != nil {
			f.Close()
			return n, fmt.Errorf("durable: write retained journal: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return n, fmt.Errorf("durable: sync retained journal: %w", err)
		}
		if err := os.Rename(tmp, filepath.Join(s.dir, journalName)); err != nil {
			f.Close()
			return n, fmt.Errorf("durable: rename journal: %w", err)
		}
		if err := syncDir(s.dir); err != nil {
			f.Close()
			return n, err
		}
		// The old handle points at the unlinked file; swap in the new one.
		_ = s.journal.Close()
		s.journal = f
	}
	s.size = int64(len(frames))
	s.flushErr = nil
	return n, nil
}

// WriteSnapshot atomically replaces the checkpoint without touching the
// journal. Returns the checkpoint size in bytes.
func (s *Store) WriteSnapshot(payload []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeSnapshotLocked(payload)
}

func (s *Store) writeSnapshotLocked(payload []byte) (int, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("durable: snapshot of %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	frame := appendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("durable: create snapshot tmp: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return 0, fmt.Errorf("durable: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("durable: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("durable: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return 0, fmt.Errorf("durable: rename snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return 0, err
	}
	return len(frame), nil
}

// Close releases the journal handle. Further operations fail with
// ErrStoreClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	s.drainLocked()
	err := s.journal.Close()
	s.journal = nil
	if s.timer != nil {
		s.timer.Stop()
	}
	s.flushed.Broadcast()
	return err
}

// appendFrame appends [len][crc][payload] to dst and returns it.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// parseFrame reads one record from the front of b. ok is false when b holds
// no complete, CRC-valid record (a torn or corrupt tail).
func parseFrame(b []byte) (payload []byte, consumed int, ok bool) {
	if len(b) < frameHeader {
		return nil, 0, false
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n > MaxRecordBytes || frameHeader+int(n) > len(b) {
		return nil, 0, false
	}
	payload = b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(b[4:8]) {
		return nil, 0, false
	}
	return payload, frameHeader + int(n), true
}

// syncDir fsyncs a directory so a completed rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: open dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	return nil
}
