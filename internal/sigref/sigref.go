package sigref

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/acoustic-auth/piano/internal/dsp"
)

// Common errors reported by this package.
var (
	ErrBadParams   = errors.New("sigref: invalid parameters")
	ErrBadEncoding = errors.New("sigref: malformed signal encoding")
)

// Params describes the reference-signal design space. The zero value is not
// usable; start from DefaultParams.
type Params struct {
	// SampleRate of the devices' audio path, Hz. Paper: 44100.
	SampleRate float64
	// Length of the reference signal in samples; must be a power of two
	// (FFT requirement). Paper: 4096 (~93 ms).
	Length int
	// BandLowHz/BandHighHz bound the candidate frequency band.
	// Paper: [25000, 35000] — above audible noise and (after aliasing)
	// clear of the <6 kHz ambient concentration.
	BandLowHz  float64
	BandHighHz float64
	// NumCandidates is the number of candidate frequencies N. Paper: 30.
	NumCandidates int
	// FullScale is the peak time-domain amplitude budget. Paper: 32000
	// (16-bit Android audio path).
	FullScale float64
}

// DefaultParams returns the exact configuration of the paper's prototype.
func DefaultParams() Params {
	return Params{
		SampleRate:    44100,
		Length:        4096,
		BandLowHz:     25000,
		BandHighHz:    35000,
		NumCandidates: 30,
		FullScale:     32000,
	}
}

// Validate checks internal consistency. Non-finite floats are rejected
// explicitly: NaN slips through every ordered comparison below (NaN <= 0 is
// false), so without these checks a NaN sample rate or band edge would
// validate and then poison the synthesis downstream.
func (p Params) Validate() error {
	switch {
	case !finite(p.SampleRate) || p.SampleRate <= 0:
		return fmt.Errorf("%w: sample rate %g", ErrBadParams, p.SampleRate)
	case !dsp.IsPowerOfTwo(p.Length):
		return fmt.Errorf("%w: length %d not a power of two", ErrBadParams, p.Length)
	case !finite(p.BandLowHz) || !finite(p.BandHighHz) || p.BandLowHz <= 0 || p.BandHighHz <= p.BandLowHz:
		return fmt.Errorf("%w: band [%g, %g]", ErrBadParams, p.BandLowHz, p.BandHighHz)
	case p.NumCandidates < 2 || p.NumCandidates > 255:
		return fmt.Errorf("%w: %d candidates (need 2..255)", ErrBadParams, p.NumCandidates)
	case !finite(p.FullScale) || p.FullScale <= 0:
		return fmt.Errorf("%w: full scale %g", ErrBadParams, p.FullScale)
	}
	return nil
}

// finite reports whether v is an ordinary float (not NaN, not ±Inf).
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Candidates returns the N candidate frequencies: the center of each of the
// N equal-width bins partitioning [BandLowHz, BandHighHz].
func (p Params) Candidates() []float64 {
	width := (p.BandHighHz - p.BandLowHz) / float64(p.NumCandidates)
	out := make([]float64, p.NumCandidates)
	for i := range out {
		out[i] = p.BandLowHz + (float64(i)+0.5)*width
	}
	return out
}

// DurationSec returns the reference-signal duration in seconds.
func (p Params) DurationSec() float64 {
	return float64(p.Length) / p.SampleRate
}

// Signal is one constructed reference signal. It is fully described by the
// indices of its chosen candidate frequencies plus per-sinusoid phases;
// the time-domain samples are synthesized on first use and cached (see
// Samples). A Signal must not be copied after first use (the cache is
// guarded by a sync.Once).
type Signal struct {
	params  Params
	indices []int // sorted indices into params.Candidates()
	phases  []float64

	// synthOnce guards the one-time synthesis behind Samples: the waveform
	// costs O(Length·n) math.Sin calls, is scheduled and scanned strictly
	// by reference (world.SchedulePlay's ownership contract), and is never
	// mutated — so experiments that replay one signal were re-synthesizing
	// it for nothing.
	synthOnce sync.Once
	samples   []float64
}

// New constructs a randomized reference signal per the paper's Step I:
// sample n uniformly from 1..N-1, then choose n candidate frequencies
// uniformly at random without replacement. Phases are randomized too (the
// detector is phase-blind; random phases just avoid coherent peaking).
func New(p Params, rng *rand.Rand) (*Signal, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("sigref: nil rng")
	}
	n := 1 + rng.Intn(p.NumCandidates-1) // 1..N-1
	return NewWithCount(p, n, rng)
}

// NewWithCount constructs a reference signal with exactly n component
// frequencies (used by tests, ablations, and attack simulations).
func NewWithCount(p Params, n int, rng *rand.Rand) (*Signal, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("sigref: nil rng")
	}
	if n < 1 || n >= p.NumCandidates {
		return nil, fmt.Errorf("%w: component count %d (need 1..%d)", ErrBadParams, n, p.NumCandidates-1)
	}
	perm := rng.Perm(p.NumCandidates)[:n]
	indices := append([]int(nil), perm...)
	sortInts(indices)
	phases := make([]float64, n)
	for i := range phases {
		phases[i] = rng.Float64() * 2 * math.Pi
	}
	return &Signal{params: p, indices: indices, phases: phases}, nil
}

// NewFromIndices builds a signal from explicit candidate indices (sorted,
// deduplicated by the caller). Used to reconstruct a received signal and by
// the attack harness to craft spoofing signals.
func NewFromIndices(p Params, indices []int, phases []float64) (*Signal, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(indices) < 1 || len(indices) >= p.NumCandidates {
		return nil, fmt.Errorf("%w: %d indices", ErrBadParams, len(indices))
	}
	if len(phases) != 0 && len(phases) != len(indices) {
		return nil, fmt.Errorf("%w: %d phases for %d indices", ErrBadParams, len(phases), len(indices))
	}
	seen := make(map[int]bool, len(indices))
	for _, idx := range indices {
		if idx < 0 || idx >= p.NumCandidates {
			return nil, fmt.Errorf("%w: index %d out of range", ErrBadParams, idx)
		}
		if seen[idx] {
			return nil, fmt.Errorf("%w: duplicate index %d", ErrBadParams, idx)
		}
		seen[idx] = true
	}
	idxCopy := append([]int(nil), indices...)
	sortInts(idxCopy)
	ph := make([]float64, len(indices))
	copy(ph, phases)
	return &Signal{params: p, indices: idxCopy, phases: ph}, nil
}

// Params returns the design parameters the signal was built with.
func (s *Signal) Params() Params { return s.params }

// Indices returns a copy of the chosen candidate indices (sorted).
func (s *Signal) Indices() []int {
	return append([]int(nil), s.indices...)
}

// Count returns n, the number of component frequencies.
func (s *Signal) Count() int { return len(s.indices) }

// Frequencies returns the chosen candidate frequencies in Hz.
func (s *Signal) Frequencies() []float64 {
	all := s.params.Candidates()
	out := make([]float64, len(s.indices))
	for i, idx := range s.indices {
		out[i] = all[idx]
	}
	return out
}

// RF returns the per-frequency reference power R_f = (FullScale/n)².
func (s *Signal) RF() float64 {
	a := s.params.FullScale / float64(len(s.indices))
	return a * a
}

// TotalRF returns R_S = Σ_f R_f = FullScale²/n, the threshold base used by
// Algorithm 1's absent-signal check.
func (s *Signal) TotalRF() float64 {
	return s.RF() * float64(len(s.indices))
}

// Samples returns the time-domain reference signal: the sum of the
// component sinusoids, each with amplitude FullScale/n.
//
// Immutability contract: the waveform is synthesized once and cached, so
// every call returns the SAME underlying array, possibly to several
// goroutines at once. Callers may schedule, window, or correlate against
// it but must never write to it; a caller needing a scratch buffer must
// make its own copy. (world.SchedulePlay already imposes the same
// read-only contract on scheduled slices.)
func (s *Signal) Samples() []float64 {
	s.synthOnce.Do(func() { s.samples = s.synthesize() })
	return s.samples
}

// synthesize renders the waveform; callers go through Samples.
func (s *Signal) synthesize() []float64 {
	out := make([]float64, s.params.Length)
	amp := s.params.FullScale / float64(len(s.indices))
	freqs := s.Frequencies()
	for i, f := range freqs {
		w := 2 * math.Pi * f / s.params.SampleRate
		ph := s.phases[i]
		for t := range out {
			out[t] += amp * math.Sin(w*float64(t)+ph)
		}
	}
	return out
}

// MarshalBinary encodes the signal descriptor for transmission over the
// Bluetooth secure channel (Step II). Layout (little-endian):
//
//	uint32 length | float64 sampleRate | float64 bandLow | float64 bandHigh |
//	uint8 numCandidates | float64 fullScale | uint8 n | n×uint8 index | n×float64 phase
func (s *Signal) MarshalBinary() ([]byte, error) {
	n := len(s.indices)
	buf := make([]byte, 0, 38+n*9)
	var scratch [8]byte

	binary.LittleEndian.PutUint32(scratch[:4], uint32(s.params.Length))
	buf = append(buf, scratch[:4]...)
	for _, v := range []float64{s.params.SampleRate, s.params.BandLowHz, s.params.BandHighHz} {
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
		buf = append(buf, scratch[:]...)
	}
	buf = append(buf, byte(s.params.NumCandidates))
	binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(s.params.FullScale))
	buf = append(buf, scratch[:]...)
	buf = append(buf, byte(n))
	for _, idx := range s.indices {
		buf = append(buf, byte(idx))
	}
	for _, ph := range s.phases {
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(ph))
		buf = append(buf, scratch[:]...)
	}
	return buf, nil
}

// MaxSignalLength bounds the Length field UnmarshalSignal accepts: 2²⁰
// samples (~24 s at 44.1 kHz) is orders of magnitude beyond any plausible
// reference-signal design, while a raw uint32 length would let a malformed
// (or hostile) Step-II descriptor demand a multi-gigabyte synthesis buffer
// from whoever first calls Samples on the decoded signal.
const MaxSignalLength = 1 << 20

// UnmarshalSignal decodes a descriptor produced by MarshalBinary. It is the
// Step-II trust boundary: descriptors arrive over the Bluetooth channel
// from the peer device, so every field is bounds-checked — in particular
// Length is capped at MaxSignalLength before the signal (and its eventual
// synthesis buffer) can come to life.
func UnmarshalSignal(data []byte) (*Signal, error) {
	const fixed = 4 + 8*3 + 1 + 8 + 1
	if len(data) < fixed {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadEncoding, len(data))
	}
	var p Params
	p.Length = int(binary.LittleEndian.Uint32(data[0:4]))
	if p.Length <= 0 || p.Length > MaxSignalLength {
		return nil, fmt.Errorf("%w: length %d outside (0, %d]", ErrBadEncoding, p.Length, MaxSignalLength)
	}
	p.SampleRate = math.Float64frombits(binary.LittleEndian.Uint64(data[4:12]))
	p.BandLowHz = math.Float64frombits(binary.LittleEndian.Uint64(data[12:20]))
	p.BandHighHz = math.Float64frombits(binary.LittleEndian.Uint64(data[20:28]))
	p.NumCandidates = int(data[28])
	p.FullScale = math.Float64frombits(binary.LittleEndian.Uint64(data[29:37]))
	n := int(data[37])
	if len(data) != fixed+n+8*n {
		return nil, fmt.Errorf("%w: %d bytes for n=%d", ErrBadEncoding, len(data), n)
	}
	indices := make([]int, n)
	for i := 0; i < n; i++ {
		indices[i] = int(data[fixed+i])
	}
	phases := make([]float64, n)
	for i := 0; i < n; i++ {
		off := fixed + n + 8*i
		phases[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
		// Phases come off the wire too: a NaN or ±Inf phase validates
		// nowhere downstream but would synthesize a waveform of NaNs.
		if !finite(phases[i]) {
			return nil, fmt.Errorf("%w: non-finite phase %g at %d", ErrBadEncoding, phases[i], i)
		}
	}
	sig, err := NewFromIndices(p, indices, phases)
	if err != nil {
		return nil, fmt.Errorf("sigref: decode: %w", err)
	}
	return sig, nil
}

// TimeDomainRandom synthesizes the strawman the paper rejects in §IV-B: a
// reference signal that is simply an array of uniform random samples at
// full scale. It exists for the randomization-domain ablation bench.
func TimeDomainRandom(p Params, rng *rand.Rand) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("sigref: nil rng")
	}
	out := make([]float64, p.Length)
	for i := range out {
		out[i] = (2*rng.Float64() - 1) * p.FullScale
	}
	return out, nil
}

// sortInts is an insertion sort; candidate sets are ≤255 entries so this
// avoids pulling in sort for a trivial case.
func sortInts(x []int) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}
