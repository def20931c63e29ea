package acoustic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/acoustic-auth/piano/internal/dsp"
)

// SpeedOfSoundMPS is the propagation speed used throughout (the paper uses
// "around 340 m/s"; 343 m/s is the 20 °C value).
const SpeedOfSoundMPS = 343.0

// ChannelConfig holds the physical constants of the simulated air channel.
type ChannelConfig struct {
	// RefGain is the amplitude gain at 1 m: gain(d) = RefGain/d (spherical
	// spreading), clamped to MaxGain. Calibrated so that the detectable
	// range d_s lands near the paper's ≈2.5 m.
	RefGain float64
	// MaxGain caps the gain at very short range (models microphone AGC;
	// also keeps a device's own reference signal from clipping its ADC).
	MaxGain float64
	// WallTransmission is the extra amplitude factor applied when source
	// and receiver are in different rooms. The paper observes walls
	// attenuate the reference signals below detectability.
	WallTransmission float64
	// MinDistance clamps the geometric distance (devices are never
	// acoustically coincident).
	MinDistance float64
	// TransducerTaps is the number of short-delay echo taps modelling the
	// combined speaker+microphone impulse response; TransducerGain bounds
	// their amplitude relative to the direct path. These taps smear the
	// waveform in time — the frequency-smoothing phenomenon that defeats
	// cross-correlation detection (paper §IV-C, Fig. 2b).
	TransducerTaps int
	TransducerGain float64
}

// DefaultChannelConfig returns the calibrated physical constants.
func DefaultChannelConfig() ChannelConfig {
	return ChannelConfig{
		RefGain:          0.32,
		MaxGain:          0.85,
		WallTransmission: 0.05,
		MinDistance:      0.02,
		TransducerTaps:   2,
		TransducerGain:   0.12,
	}
}

// Validate checks the configuration for physical plausibility.
func (c ChannelConfig) Validate() error {
	switch {
	case c.RefGain <= 0:
		return errors.New("acoustic: RefGain must be positive")
	case c.MaxGain <= 0:
		return errors.New("acoustic: MaxGain must be positive")
	case c.WallTransmission < 0 || c.WallTransmission > 1:
		return fmt.Errorf("acoustic: WallTransmission %g out of [0,1]", c.WallTransmission)
	case c.MinDistance <= 0:
		return errors.New("acoustic: MinDistance must be positive")
	case c.TransducerTaps < 0 || c.TransducerGain < 0:
		return errors.New("acoustic: transducer parameters must be non-negative")
	}
	return nil
}

// Tap is one impulse-response component of a propagation path: an extra
// delay (relative to the direct line-of-sight arrival) and an amplitude
// gain (already folded with the direct-path gain).
type Tap struct {
	DelaySamples float64
	Gain         float64
}

// Path is the complete impulse response between one speaker and one
// microphone: the line-of-sight base delay plus a set of taps (direct path,
// transducer smearing, room reflections) and a random allpass cascade
// modelling transducer phase dispersion.
type Path struct {
	// BaseDelaySamples is distance/343 · sampleRate for the direct path.
	BaseDelaySamples float64
	// Taps are offsets on top of the base delay. Taps[0] is the direct
	// path (delay 0).
	Taps []Tap
	// AllpassCoeffs are first-order allpass coefficients applied in
	// cascade to the emitted waveform. Speakers and microphones driven an
	// octave above their design band (25–35 kHz on phone hardware) have
	// wildly non-linear phase; an allpass cascade reproduces exactly that:
	// unit magnitude response (the frequency detector's band powers are
	// untouched) but heavy phase dispersion, which is the frequency
	// smoothing that collapses time-domain cross-correlation (Fig. 2b).
	AllpassCoeffs []float64
	// Blocked reports whether the path is attenuated below usefulness
	// (kept for diagnostics; blocked paths still render, just faintly).
	Blocked bool

	// Composite-kernel cache (see CompositeKernel). The kernel depends on
	// the play's base arrival and the destination's rate ratio, so those
	// form the cache key; the taps themselves are baked in at build time.
	kernel     *dsp.SparseFIR
	kernelBase float64
	kernelRate float64
}

// CompositeKernel folds the path's taps into one sparse FIR for a play whose
// direct-path (tap-0) arrival lands at baseArrival destination samples, with
// tapRate converting tap delays (scene-rate samples) into destination
// samples (destination true rate ÷ scene sample rate; ≠1 only under clock
// skew). Tap t lands at offset baseArrival + Taps[t].DelaySamples·tapRate,
// so applying the returned FIR once (audio.MixSparseFIR) replaces one
// windowed-sinc mix per tap with bit-equivalent coefficients folded from the
// same dsp.SincDelayKernel — only the floating-point summation order
// changes.
//
// The kernel is cached on the path and rebuilt only when (baseArrival,
// tapRate) changes. Geometry and channel-config changes invalidate it
// structurally: paths are drawn fresh from the scene RNG on every render
// (world.Render → NewPath), so a mutated scene never sees a stale kernel —
// the regression tests in world pin that. Callers that mutate Taps on a
// live Path (tests, mostly) must call InvalidateKernel afterwards.
//
// The returned FIR is owned by the path; treat it as read-only. A Path is
// not safe for concurrent CompositeKernel calls (the renderer gives each
// goroutine its own paths).
func (p *Path) CompositeKernel(baseArrival, tapRate float64) *dsp.SparseFIR {
	if p.kernel != nil && p.kernelBase == baseArrival && p.kernelRate == tapRate {
		return p.kernel
	}
	taps := make([]dsp.FIRTap, len(p.Taps))
	for i, t := range p.Taps {
		taps[i] = dsp.FIRTap{Offset: baseArrival + t.DelaySamples*tapRate, Gain: t.Gain}
	}
	p.kernel = dsp.NewSparseFIR(taps)
	p.kernelBase, p.kernelRate = baseArrival, tapRate
	return p.kernel
}

// InvalidateKernel drops the cached composite kernel so the next
// CompositeKernel call rebuilds it. Only needed after mutating Taps on a
// Path that has already handed out a kernel; NewPath-built paths start
// clean.
func (p *Path) InvalidateKernel() { p.kernel = nil }

// allpassTail is the extra buffer length appended to hold the dispersion
// tail of the allpass cascade.
const allpassTail = 256

// AllpassWorkspace applies allpass cascades while reusing two scratch
// buffers across calls, so render loops filter many plays without per-play
// allocations. The zero value is ready to use. Not safe for concurrent use;
// give each rendering goroutine its own workspace.
type AllpassWorkspace struct {
	cur, next []float64
}

// Apply runs src through the first-order allpass cascade described by
// coeffs (y[n] = −a·x[n] + x[n−1] + a·y[n−1] per section) into
// workspace-owned storage. The returned slice is len(src)+256 long, to hold
// the dispersion tail; it aliases the workspace and is valid only until the
// next Apply call.
func (w *AllpassWorkspace) Apply(src []float64, coeffs []float64) []float64 {
	total := len(src) + allpassTail
	if cap(w.cur) < total {
		w.cur = make([]float64, total)
		w.next = make([]float64, total)
	}
	cur := w.cur[:total]
	next := w.next[:total]
	copy(cur, src)
	for i := len(src); i < total; i++ {
		cur[i] = 0
	}
	for _, a := range coeffs {
		var xPrev, yPrev float64
		for i, x := range cur {
			y := -a*x + xPrev + a*yPrev
			next[i] = y
			xPrev, yPrev = x, y
		}
		cur, next = next, cur
	}
	w.cur, w.next = cur[:cap(cur)], next[:cap(next)]
	return cur
}

// Gain returns the direct-path amplitude gain for distance d (meters).
func (c ChannelConfig) Gain(d float64) float64 {
	if d < c.MinDistance {
		d = c.MinDistance
	}
	g := c.RefGain / d
	if g > c.MaxGain {
		g = c.MaxGain
	}
	return g
}

// NewPath builds the impulse response for a speaker→microphone pair.
// distance is in meters; sameRoom=false applies the wall loss; profile
// supplies the environment's reflection richness; rng drives the randomized
// reflection geometry (every authentication sees a slightly different
// channel, as real rooms do when people move).
func NewPath(cfg ChannelConfig, profile Profile, distance float64, sameRoom bool, sampleRate float64, rng *rand.Rand) (*Path, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sampleRate <= 0 {
		return nil, errors.New("acoustic: sample rate must be positive")
	}
	if rng == nil {
		return nil, errors.New("acoustic: nil rng")
	}
	if distance < cfg.MinDistance {
		distance = cfg.MinDistance
	}

	g := cfg.Gain(distance)
	blocked := false
	if !sameRoom {
		g *= cfg.WallTransmission
		blocked = true
	}

	// Time-of-flight wander on inter-device paths (see
	// Profile.PathJitterSamples). Self paths (speaker to own mic, a few
	// centimeters inside one chassis) do not wander.
	baseDelay := distance / SpeedOfSoundMPS * sampleRate
	if distance > 0.2 && profile.PathJitterSamples > 0 {
		baseDelay += rng.NormFloat64() * profile.PathJitterSamples
		if baseDelay < 0 {
			baseDelay = 0
		}
	}

	taps := make([]Tap, 0, 1+cfg.TransducerTaps+profile.ReflectionCount)
	taps = append(taps, Tap{DelaySamples: 0, Gain: g})

	// Transducer smearing: short-delay taps within a few samples.
	for i := 0; i < cfg.TransducerTaps; i++ {
		decay := math.Pow(0.6, float64(i))
		gain := g * cfg.TransducerGain * decay * (2*rng.Float64() - 1)
		delay := 1 + float64(i) + rng.Float64()
		taps = append(taps, Tap{DelaySamples: delay, Gain: gain})
	}

	// Room reflections: longer excess paths, attenuated by the extra
	// travel and surface absorption. Reflections also pass the wall when
	// the direct path does not, so they inherit the wall loss.
	for i := 0; i < profile.ReflectionCount; i++ {
		delay := profile.ReflectionDelayMin +
			rng.Float64()*(profile.ReflectionDelayMax-profile.ReflectionDelayMin)
		gain := g * (profile.ReflectionGainMin +
			rng.Float64()*(profile.ReflectionGainMax-profile.ReflectionGainMin))
		if rng.Intn(2) == 0 {
			gain = -gain
		}
		taps = append(taps, Tap{DelaySamples: delay, Gain: gain})
	}

	// Transducer phase dispersion: a handful of random allpass sections.
	allpass := make([]float64, 4)
	for i := range allpass {
		allpass[i] = (2*rng.Float64() - 1) * 0.45
	}

	return &Path{
		BaseDelaySamples: baseDelay,
		Taps:             taps,
		AllpassCoeffs:    allpass,
		Blocked:          blocked,
	}, nil
}
