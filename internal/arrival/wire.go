package arrival

import (
	"fmt"
	"math/rand"
	"sort"
)

// WireConfig parameterizes the lossy transport between a client's chunker
// and the service's frame reassembler: each framed chunk independently
// risks being dropped, duplicated, delivered out of order, or corrupted in
// flight. The zero value is a perfect wire — every frame arrives exactly
// once, in order, intact.
type WireConfig struct {
	// LossProb is the per-frame probability the frame never arrives, in
	// [0, 1]. Loss dominates the other fates: a lost frame is not also
	// duplicated, reordered, or corrupted.
	LossProb float64
	// DupProb is the per-frame probability a second copy of the frame
	// arrives later, in [0, 1].
	DupProb float64
	// ReorderProb is the per-frame probability the frame is delayed past
	// later frames, in [0, 1].
	ReorderProb float64
	// CorruptProb is the per-frame probability the frame's bytes are
	// damaged in flight (its CRC will not verify), in [0, 1].
	CorruptProb float64
	// ReorderSpan bounds how many frames later a reordered frame lands
	// (0 → 8). Together with the reassembler's reorder window it decides
	// whether a reordered frame is repaired or structurally expired.
	ReorderSpan int
}

// withDefaults fills the zero-value fields.
func (c WireConfig) withDefaults() WireConfig {
	if c.ReorderSpan == 0 {
		c.ReorderSpan = 8
	}
	return c
}

// validate rejects configurations that would silently misbehave.
func (c WireConfig) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"LossProb", c.LossProb},
		{"DupProb", c.DupProb},
		{"ReorderProb", c.ReorderProb},
		{"CorruptProb", c.CorruptProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("arrival: %s %g outside [0, 1]", p.name, p.v)
		}
	}
	if c.ReorderSpan < 0 {
		return fmt.Errorf("arrival: ReorderSpan %d is negative (0 means the default span)", c.ReorderSpan)
	}
	return nil
}

// WireEvent is one frame delivery as the receiver sees it: frame Seq
// carries samples [Offset, Offset+N) of the recording, and Corrupt marks a
// frame whose bytes were damaged in flight (the driver flips payload bits
// after encoding, so the receiver's CRC check rejects it). Lost frames
// emit no event at all — the receiver only ever learns about them from the
// gap they leave.
type WireEvent struct {
	Seq     uint32
	Offset  int
	N       int
	Corrupt bool
}

// wireMix decorrelates the wire RNG from the chunking RNG: both are
// derived from the caller's one seed, but the wire stream must not replay
// the chunk-size draws as frame fates. (The golden-ratio constant,
// interpreted as a signed 64-bit value; wrap-around multiplication is
// well-defined and deterministic.)
const wireMix = int64(-0x61C8864680B583EB)

// Wire builds the deterministic delivery schedule a lossy transport
// produces for one role's feed: the chunk partition comes from
// Chunks(cfg, seed, total) — so the frame boundaries are identical to what
// a clean transport with the same seed delivers — and each frame's fate
// comes from exactly five unconditional draws on a separate seeded RNG.
// The draw count per frame is fixed regardless of which fates trigger, so
// schedules are stable across WireConfigs that differ only in
// probabilities: raising LossProb changes which frames are lost, never the
// boundaries or fates of the others. The same (cfg, wire, seed, total)
// always replays the same schedule.
func Wire(cfg Config, wire WireConfig, seed int64, total int) ([]WireEvent, error) {
	wire = wire.withDefaults()
	if err := wire.validate(); err != nil {
		return nil, err
	}
	chunks, err := Chunks(cfg, seed, total)
	if err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed*wireMix + 1))

	// key orders deliveries; tie breaks equal keys by emission order so
	// the sort below is fully deterministic. An in-order frame sits at an
	// even key 2i; a reordered frame lands at an odd key past its drawn
	// landing slot, so it arrives after every in-order frame up to there.
	type slot struct {
		ev  WireEvent
		key int
		tie int
	}
	var slots []slot
	emit := func(ev WireEvent, key int) {
		slots = append(slots, slot{ev: ev, key: key, tie: len(slots)})
	}
	off := 0
	for i, n := range chunks {
		// Five unconditional draws per frame, always in this order —
		// the schedule-stability contract.
		uLoss := rng.Float64()
		uDup := rng.Float64()
		uReorder := rng.Float64()
		uDelay := rng.Float64()
		uCorrupt := rng.Float64()

		ev := WireEvent{Seq: uint32(i), Offset: off, N: n}
		off += n
		if uLoss < wire.LossProb {
			continue // lost frames never reach the wire
		}
		ev.Corrupt = uCorrupt < wire.CorruptProb
		key := 2 * i
		if uReorder < wire.ReorderProb {
			key = 2*(i+1+int(uDelay*float64(wire.ReorderSpan))) + 1
		}
		emit(ev, key)
		if uDup < wire.DupProb {
			// The duplicate lands a few slots after the original (whether
			// or not the original was reordered).
			emit(ev, key+2*(1+int(uDelay*float64(wire.ReorderSpan))))
		}
	}
	sort.SliceStable(slots, func(a, b int) bool {
		if slots[a].key != slots[b].key {
			return slots[a].key < slots[b].key
		}
		return slots[a].tie < slots[b].tie
	})
	out := make([]WireEvent, len(slots))
	for i, s := range slots {
		out[i] = s.ev
	}
	return out, nil
}
