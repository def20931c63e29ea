package dsp

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadSampleRate is returned when a non-positive sampling rate is supplied.
var ErrBadSampleRate = errors.New("dsp: sample rate must be positive")

// Sine synthesizes length samples of amplitude·sin(2π·freq·t + phase) at the
// given sampling rate. Frequencies above Nyquist alias exactly as they would
// through a real ADC, which is the behaviour PIANO relies on (25–35 kHz
// references sampled at 44.1 kHz).
func Sine(freqHz, amplitude, phase, sampleRate float64, length int) ([]float64, error) {
	if sampleRate <= 0 {
		return nil, fmt.Errorf("dsp: sine at %g Hz: %w", freqHz, ErrBadSampleRate)
	}
	if length < 0 {
		return nil, fmt.Errorf("dsp: sine length %d must be non-negative", length)
	}
	out := make([]float64, length)
	w := 2 * math.Pi * freqHz / sampleRate
	for i := range out {
		out[i] = amplitude * math.Sin(w*float64(i)+phase)
	}
	return out, nil
}

// PeakAbs returns the maximum absolute sample value of x.
func PeakAbs(x []float64) float64 {
	var peak float64
	for _, v := range x {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	return peak
}
