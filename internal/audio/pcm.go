package audio

import (
	"fmt"
	"math"
)

const (
	// MaxSample is the largest representable 16-bit PCM value. The paper
	// sizes reference-signal power against the 16-bit integer range
	// ("we use 32000 because the Android system uses 16 bit integer").
	MaxSample = 32767
	// MinSample is the smallest representable 16-bit PCM value.
	MinSample = -32768
)

// Clamp16 saturates v to the representable int16 range, mimicking the
// clipping a real ADC/DAC applies.
func Clamp16(v float64) int16 {
	switch {
	case v > MaxSample:
		return MaxSample
	case v < MinSample:
		return MinSample
	default:
		return int16(math.Round(v))
	}
}

// ToFloat converts int16 PCM samples to float64 without rescaling, so a
// full-scale sine keeps amplitude ≈ 32767. Keeping the integer scale makes
// the paper's power parameters (R_f = (32000/n)²) directly comparable.
func ToFloat(pcm []int16) []float64 {
	out := make([]float64, len(pcm))
	for i, v := range pcm {
		out[i] = float64(v)
	}
	return out
}

// FromFloat converts float64 samples to int16 PCM with saturation.
func FromFloat(x []float64) []int16 {
	out := make([]int16, len(x))
	for i, v := range x {
		out[i] = Clamp16(v)
	}
	return out
}

// Buffer is a mono PCM recording with its sampling rate.
type Buffer struct {
	SampleRate float64 // samples per second
	Samples    []int16
}

// Duration returns the buffer length in seconds.
func (b *Buffer) Duration() float64 {
	if b.SampleRate <= 0 {
		return 0
	}
	return float64(len(b.Samples)) / b.SampleRate
}

// Float returns the samples as float64 (integer scale preserved). It
// allocates a fresh copy 4× the PCM's byte size per call; the detection hot path ingests
// Samples directly instead (detect.Detector.FedStream fuses the exact
// widening conversion into its spectral engine), so Float is for baselines,
// experiments, and diagnostics rather than per-session use.
func (b *Buffer) Float() []float64 {
	return ToFloat(b.Samples)
}

// MixInto adds src (float samples) into dst starting at sample offset,
// saturating at the int16 range. Samples falling outside dst are dropped —
// the microphone simply wasn't recording then. Negative offsets clip the
// head of src. A fractional offset is applied by linear interpolation,
// modelling sub-sample propagation delay.
func MixInto(dst []int16, src []float64, offset float64) {
	if len(src) == 0 || len(dst) == 0 {
		return
	}
	base := math.Floor(offset)
	frac := offset - base
	start := int(base)
	// With linear interpolation, sample dst[start+i] receives
	// (1-frac)*src[i] + frac*src[i-1].
	for i := 0; i <= len(src); i++ {
		di := start + i
		if di < 0 || di >= len(dst) {
			continue
		}
		var v float64
		if i < len(src) {
			v += (1 - frac) * src[i]
		}
		if i > 0 {
			v += frac * src[i-1]
		}
		dst[di] = Clamp16(float64(dst[di]) + v)
	}
}

// NewSilence returns an all-zero buffer of length n at the given rate.
func NewSilence(sampleRate float64, n int) (*Buffer, error) {
	if sampleRate <= 0 {
		return nil, fmt.Errorf("audio: sample rate %g must be positive", sampleRate)
	}
	if n < 0 {
		return nil, fmt.Errorf("audio: length %d must be non-negative", n)
	}
	return &Buffer{SampleRate: sampleRate, Samples: make([]int16, n)}, nil
}
