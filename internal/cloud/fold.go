package cloud

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/edge"
	"repro/internal/game"
	"repro/internal/policy"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Fold is the transport-independent consensus fold core: a game state, the
// FDS controller shaping it, and the CRC-32C witness over the state's bits.
// It is the piece of the coordinator that turns a round's census set into
// the next ratio field — extracted from Server so both consensus tiers drive
// the exact same code: the cloud folds globally, and every gossip node
// (internal/gossip) folds its neighborhood's rounds locally. Two folds fed
// the same census sequence hold bit-identical states, which is what makes
// edge-local rounds reconcilable with the control plane after a partition.
// The fold does no locking; the owner serializes calls, Hash included.
type Fold struct {
	fds   *policy.FDS
	state *game.State
	wit   []byte // Hash's encoding buffer, reused across calls
}

// NewFold validates the initial state and returns a fold over a private
// clone of it.
func NewFold(f *policy.FDS, initial *game.State) (*Fold, error) {
	if f == nil || initial == nil {
		return nil, fmt.Errorf("cloud: controller and state must be non-nil")
	}
	if err := initial.Validate(); err != nil {
		return nil, fmt.Errorf("cloud: initial state: %w", err)
	}
	if len(initial.P) == 0 {
		return nil, fmt.Errorf("cloud: initial state has no regions")
	}
	return &Fold{fds: f, state: initial.Clone()}, nil
}

// Regions returns the number of regions in the folded state.
func (f *Fold) Regions() int { return len(f.state.P) }

// Decisions returns the lattice size K censuses must match.
func (f *Fold) Decisions() int { return len(f.state.P[0]) }

// Apply folds one round's censuses into the state and runs one FDS update.
// Regions missing from a degraded round — and empty censuses from edges
// with no registered vehicles — keep their last-known shares.
func (f *Fold) Apply(censuses map[int][]int) error {
	for i, counts := range censuses {
		total := 0
		for _, c := range counts {
			total += c
		}
		if total == 0 {
			continue
		}
		if i >= 0 && i < len(f.state.P) && len(counts) == len(f.state.P[i]) {
			edge.SharesInto(f.state.P[i], counts)
		}
	}
	if _, err := f.fds.UpdateRatios(f.state); err != nil {
		return fmt.Errorf("cloud: FDS update: %w", err)
	}
	return nil
}

// Hash returns a CRC-32C over the state's bits: its shape (len(P), each
// len(P[i]), len(X)) and then math.Float64bits of every P and X entry, as
// little-endian uint64s. Two folds hold bit-identical ratio fields if and
// only if their hashes match (up to CRC collisions). The witness is only
// compared between runs of the same build; it is never sent or journaled.
func (f *Fold) Hash() uint32 {
	st := f.state
	b := binary.LittleEndian.AppendUint64(f.wit[:0], uint64(len(st.P)))
	for _, row := range st.P {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(row)))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(st.X)))
	for _, row := range st.P {
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	for _, v := range st.X {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	f.wit = b
	return crc32.Checksum(b, castagnoli)
}

// X returns region edge's current sharing ratio.
func (f *Fold) X(edge int) float64 { return f.state.X[edge] }

// State returns the live state. The caller must hold whatever lock
// serializes the fold and must not mutate it outside Apply/SetState.
func (f *Fold) State() *game.State { return f.state }

// SetState replaces the live state, taking ownership of st (recovery and
// rewind both install snapshots they already own).
func (f *Fold) SetState(st *game.State) { f.state = st }

// Memory snapshots the FDS controller's cross-round memory.
func (f *Fold) Memory() policy.FDSMemory { return f.fds.Memory() }

// SetMemory restores the FDS controller's cross-round memory.
func (f *Fold) SetMemory(mem policy.FDSMemory) error { return f.fds.SetMemory(mem) }

// Converged reports whether the current state satisfies the desired field.
func (f *Fold) Converged() bool {
	ok, _ := f.fds.Field().Converged(f.state.Clone())
	return ok
}
