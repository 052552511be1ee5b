package cloud

import (
	"fmt"

	"repro/internal/durable"
)

// defaultCompactEvery is how many journaled rounds accumulate before an
// owner folds its journal into a fresh checkpoint.
const defaultCompactEvery = 32

// Journal is the durability helper shared by every owner of a round journal
// — the cloud server, each gossip node and each shard coordinator: one
// state directory holding a checkpoint plus the round records journaled
// since it (see package durable). It owns the open/replay/append/compact
// mechanics; each owner keeps only its placement's rules for what a record
// means on replay and what a checkpoint must retain. Until Open attaches
// a store, Append is a no-op and Due reports false: the in-memory
// deployment. Like Engine, the journal does no locking; the owner's mutex
// guards it.
type Journal struct {
	store *durable.Store
	every int // rounds between compactions; <= 0 compacts only on demand
	since int // records journaled since the last checkpoint
}

// NewJournal returns a detached journal compacting every 32 rounds.
func NewJournal() *Journal { return &Journal{every: defaultCompactEvery} }

// Open attaches the state directory dir and returns its checkpoint
// payload, nil when none has been written yet. A second Open fails. The
// owner restores the payload (Fold.Restore), then calls Replay; if either
// fails it calls Close to detach again.
func (j *Journal) Open(dir string) (checkpoint []byte, err error) {
	if j.store != nil {
		return nil, fmt.Errorf("state directory already open (%s)", j.store.Dir())
	}
	store, err := durable.Open(dir)
	if err != nil {
		return nil, err
	}
	snap, _, err := store.LoadSnapshot() // snap is nil when none was written
	if err != nil {
		store.Close()
		return nil, err
	}
	j.store = store
	return snap, nil
}

// Attached reports whether a state directory is open.
func (j *Journal) Attached() bool { return j.store != nil }

// Replay decodes the journal's round records in append order and hands
// each to fn, truncating a torn tail a crash left behind. Every record
// replayed counts toward the next compaction.
func (j *Journal) Replay(fn func(rec durable.RoundRecord) error) error {
	n, err := j.store.Replay(func(payload []byte) error {
		rec, err := durable.DecodeRound(payload)
		if err != nil {
			return err
		}
		return fn(rec)
	})
	j.since = n
	return err
}

// Append journals one round record; it is fsynced when Append returns nil.
func (j *Journal) Append(rec durable.RoundRecord) error {
	if j.store == nil {
		return nil
	}
	payload, err := durable.EncodeRound(rec)
	if err != nil {
		return err
	}
	if err := j.store.Append(payload); err != nil {
		return err
	}
	j.since++
	return nil
}

// Due reports whether enough rounds were journaled since the last
// checkpoint that the owner should compact.
func (j *Journal) Due() bool {
	return j.store != nil && j.every > 0 && j.since >= j.every
}

// Compact atomically replaces the checkpoint with payload and the journal
// with the retained round records (none truncates it empty), returning the
// checkpoint size in bytes.
func (j *Journal) Compact(payload []byte, retained []durable.RoundRecord) (int, error) {
	frames := make([][]byte, len(retained))
	for i, rec := range retained {
		b, err := durable.EncodeRound(rec)
		if err != nil {
			return 0, err
		}
		frames[i] = b
	}
	n, err := j.store.Compact(payload, frames...)
	if err != nil {
		return 0, err
	}
	j.since = 0
	return n, nil
}

// Close releases the store, detaching the journal.
func (j *Journal) Close() {
	if j.store != nil {
		_ = j.store.Close()
		j.store = nil
	}
}

// Restore decodes a checkpoint payload and installs its state and FDS
// memory, after checking the state has the fold's M×K shape. It returns the
// checkpoint for the owner's own fields (round watermark, correction
// sequence, escalation watermarks).
func (f *Fold) Restore(payload []byte) (durable.Checkpoint, error) {
	cp, err := durable.DecodeCheckpoint(payload)
	if err != nil {
		return durable.Checkpoint{}, err
	}
	k := 0
	if len(cp.State.P) > 0 {
		k = len(cp.State.P[0])
	}
	if len(cp.State.P) != f.Regions() || k != f.Decisions() {
		return durable.Checkpoint{}, fmt.Errorf("checkpoint has %dx%d state, fold is %dx%d",
			len(cp.State.P), k, f.Regions(), f.Decisions())
	}
	if len(cp.FDS.LastShortfall) > 0 {
		if err := f.SetMemory(cp.FDS); err != nil {
			return durable.Checkpoint{}, err
		}
	}
	f.SetState(cp.State)
	return cp, nil
}
