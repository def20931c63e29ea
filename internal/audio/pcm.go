package audio

import "math"

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

// Float returns the samples as float64 (integer scale preserved). It
// allocates a fresh copy 4× the PCM's byte size per call; the detection hot path ingests
// Samples directly instead (detect.Detector.FedStream fuses the exact
// widening conversion into its spectral engine), so Float is for baselines,
// experiments, and diagnostics rather than per-session use.
func (b *Buffer) Float() []float64 {
	return ToFloat(b.Samples)
}
