package arrival

import (
	"fmt"
	"math/rand"
	"time"
)

// Kind classifies one arrival event.
type Kind int

// Event kinds, in the order a healthy feed emits them.
const (
	// Chunk delivers N samples after Gap — the ordinary microphone
	// callback cadence.
	Chunk Kind = iota
	// Underrun delivers N samples after a long Gap: the capture pipeline
	// starved (a GC pause, a Bluetooth retransmit window, a busy CPU),
	// buffered the missed audio, and now delivers the backlog as one
	// burst. N therefore includes the samples that accumulated during the
	// gap — underruns delay audio, they never drop it.
	Underrun
	// Stall ends the feed without delivering the rest: the client froze —
	// a half-dead TCP peer, a process wedged on a lock — and will never
	// feed again, but the connection is notionally still "up". No further
	// events follow.
	Stall
	// Abandon ends the feed without delivering the rest: the client
	// vanished — app killed, phone out of range — without closing the
	// session. Indistinguishable from Stall on the wire (that is the
	// point: only a server-side watchdog can tell either from a slow
	// client); the two kinds exist so drivers can report them separately.
	Abandon
	// Done reports a completed feed: every sample was delivered. No
	// further events follow.
	Done
)

// String names the kind for reports and test failures.
func (k Kind) String() string {
	switch k {
	case Chunk:
		return "chunk"
	case Underrun:
		return "underrun"
	case Stall:
		return "stall"
	case Abandon:
		return "abandon"
	case Done:
		return "done"
	}
	return fmt.Sprintf("arrival.Kind(%d)", int(k))
}

// Event is one step of a simulated live-microphone feed: wait Gap of
// simulated wall-clock, then deliver the next N samples of the recording
// (Chunk/Underrun), or learn that the client will never deliver the rest
// (Stall/Abandon), or that the feed is complete (Done).
type Event struct {
	// Kind classifies the event.
	Kind Kind
	// Gap is the simulated wall-clock wait preceding the event. Drivers
	// pace real time by sleeping Gap (scaled by their pace factor); tests
	// that only care about chunking ignore it.
	Gap time.Duration
	// N is the number of samples delivered (Chunk and Underrun only).
	N int
}

// Config parameterizes the traffic model. The zero value is a well-formed
// jitter-free feed: fixed 20 ms chunks at 44.1 kHz, no underruns, no
// client failures.
type Config struct {
	// SampleRate is the capture rate in samples per second (0 → 44100).
	SampleRate float64
	// ChunkMS is the nominal chunk duration in milliseconds — the
	// microphone callback period (0 → 20).
	ChunkMS int
	// Jitter is the fractional ± spread applied independently to each
	// chunk's size and each inter-chunk gap, in [0, 1). 0.2 means chunks
	// arrive carrying 80–120% of the nominal samples, 80–120% of the
	// nominal period apart — the scheduling noise of a real device.
	Jitter float64
	// UnderrunProb is the per-chunk probability that the chunk is
	// preceded by an underrun burst, in [0, 1].
	UnderrunProb float64
	// UnderrunMS bounds the underrun duration in milliseconds,
	// min..max inclusive ({0, 0} → {60, 250}).
	UnderrunMS [2]int
	// StallProb is the probability that this client stalls forever
	// mid-feed, in [0, 1]. The stall point is drawn once per Source.
	StallProb float64
	// AbandonProb is the probability that this client abandons the
	// session mid-feed, in [0, 1]. StallProb + AbandonProb must be ≤ 1.
	AbandonProb float64
}

// withDefaults fills the zero-value fields.
func (c Config) withDefaults() Config {
	if c.SampleRate == 0 {
		c.SampleRate = 44100
	}
	if c.ChunkMS == 0 {
		c.ChunkMS = 20
	}
	if c.UnderrunMS == [2]int{} {
		c.UnderrunMS = [2]int{60, 250}
	}
	return c
}

// validate rejects configurations that would silently misbehave.
func (c Config) validate() error {
	switch {
	case c.SampleRate < 0:
		return fmt.Errorf("arrival: SampleRate %g is negative", c.SampleRate)
	case c.ChunkMS < 0:
		return fmt.Errorf("arrival: ChunkMS %d is negative", c.ChunkMS)
	case c.Jitter < 0 || c.Jitter >= 1:
		return fmt.Errorf("arrival: Jitter %g outside [0, 1)", c.Jitter)
	case c.UnderrunProb < 0 || c.UnderrunProb > 1:
		return fmt.Errorf("arrival: UnderrunProb %g outside [0, 1]", c.UnderrunProb)
	case c.StallProb < 0 || c.StallProb > 1:
		return fmt.Errorf("arrival: StallProb %g outside [0, 1]", c.StallProb)
	case c.AbandonProb < 0 || c.AbandonProb > 1:
		return fmt.Errorf("arrival: AbandonProb %g outside [0, 1]", c.AbandonProb)
	case c.StallProb+c.AbandonProb > 1:
		return fmt.Errorf("arrival: StallProb %g + AbandonProb %g exceeds 1", c.StallProb, c.AbandonProb)
	case c.UnderrunMS[0] < 0 || c.UnderrunMS[1] < c.UnderrunMS[0]:
		return fmt.Errorf("arrival: UnderrunMS %v is not a 0 ≤ min ≤ max range", c.UnderrunMS)
	}
	return nil
}

// Source generates one feed's arrival events. It is deterministic: the
// event sequence is a pure function of (Config, seed, total), so the same
// seed replays the same chunking — and, by the streaming engine's
// any-chunking guarantee, the same bit-identical decision. A Source is not
// safe for concurrent use; drive each role's feed with its own Source.
type Source struct {
	cfg Config
	rng *rand.Rand

	// fate is the client's drawn failure mode (Stall, Abandon, or Done
	// for a healthy client) and fateAt the fed-fraction at which it
	// fires. Both are drawn at New so the failure point is part of the
	// deterministic schedule, not a per-event coin flip.
	fate   Kind
	fateAt float64
}

// New validates cfg, applies defaults, and builds a Source seeded with
// seed (0 → 1).
func New(cfg Config, seed int64) (*Source, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Source{cfg: cfg, rng: rng, fate: Done}
	// Fate draws happen first, unconditionally, so the per-chunk draw
	// sequence that follows is identical whether or not this client is
	// doomed — a stalling client's chunks match a healthy client's with
	// the same seed, exactly like the real world.
	u := rng.Float64()
	at := 0.1 + 0.8*rng.Float64() // failures fire between 10% and 90% fed
	switch {
	case u < cfg.StallProb:
		s.fate, s.fateAt = Stall, at
	case u < cfg.StallProb+cfg.AbandonProb:
		s.fate, s.fateAt = Abandon, at
	}
	return s, nil
}

// jittered spreads v by the configured ± jitter fraction. It always
// consumes exactly one RNG draw so event schedules stay aligned across
// configurations that differ only in Jitter.
func (s *Source) jittered(v float64) float64 {
	u := s.rng.Float64()
	if s.cfg.Jitter == 0 {
		return v
	}
	return v * (1 + s.cfg.Jitter*(2*u-1))
}

// Next returns the next event for a feed that has delivered fed of total
// samples. Calling Next after a Stall/Abandon/Done event (or with
// fed ≥ total) keeps returning that terminal event.
func (s *Source) Next(fed, total int) Event {
	if fed >= total {
		return Event{Kind: Done}
	}
	if s.fate != Done && float64(fed) >= s.fateAt*float64(total) {
		return Event{Kind: s.fate}
	}

	nominal := s.cfg.SampleRate * float64(s.cfg.ChunkMS) / 1000
	n := int(s.jittered(nominal))
	if n < 1 {
		n = 1
	}
	period := time.Duration(s.jittered(float64(s.cfg.ChunkMS) * float64(time.Millisecond)))
	if period < 0 {
		period = 0
	}
	ev := Event{Kind: Chunk, Gap: period, N: n}

	// Underrun: the pipeline starves for a drawn duration, then the
	// backlog that accumulated arrives with the chunk. Both draws happen
	// unconditionally (see jittered) to keep schedules seed-stable.
	uu := s.rng.Float64()
	ud := s.rng.Float64()
	if s.cfg.UnderrunProb > 0 && uu < s.cfg.UnderrunProb {
		lo, hi := s.cfg.UnderrunMS[0], s.cfg.UnderrunMS[1]
		ms := float64(lo) + ud*float64(hi-lo)
		ev.Kind = Underrun
		ev.Gap += time.Duration(ms * float64(time.Millisecond))
		ev.N += int(ms * s.cfg.SampleRate / 1000)
	}

	if remaining := total - fed; ev.N > remaining {
		ev.N = remaining
	}
	return ev
}

// Chunks returns the deterministic chunk partition a Source with this
// (cfg, seed) delivers for a total-sample feed, timing stripped — the
// shape property tests compare across runs and feed into the streaming
// engine's any-chunking bit-identity check — and the kind of the event
// that ended it. A healthy client ends with Done and its partition sums to
// total; a stalling or abandoning client ends with Stall or Abandon, and
// its partition stops at that failure point.
func Chunks(cfg Config, seed int64, total int) ([]int, Kind, error) {
	src, err := New(cfg, seed)
	if err != nil {
		return nil, Done, err
	}
	var chunks []int
	fed := 0
	for {
		ev := src.Next(fed, total)
		switch ev.Kind {
		case Chunk, Underrun:
			chunks = append(chunks, ev.N)
			fed += ev.N
		default:
			return chunks, ev.Kind, nil
		}
	}
}
