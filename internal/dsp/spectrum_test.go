package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestPowerSpectrumSineAmplitude verifies the normalization contract: a
// bin-centered sinusoid of amplitude A yields power ≈ A² at its bin.
func TestPowerSpectrumSineAmplitude(t *testing.T) {
	const (
		n    = 4096
		fs   = 44100.0
		ampl = 1000.0
	)
	bin := 300
	freq := float64(bin) * fs / n // exactly bin-centered
	x, err := Sine(freq, ampl, 0, fs, n)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec[bin]; math.Abs(got-ampl*ampl) > 1e-6*ampl*ampl {
		t.Fatalf("power at bin %d = %g, want %g", bin, got, ampl*ampl)
	}
	// Conjugate bin carries the same power.
	if got := spec[n-bin]; math.Abs(got-ampl*ampl) > 1e-6*ampl*ampl {
		t.Fatalf("power at conjugate bin = %g, want %g", got, ampl*ampl)
	}
}

// TestPowerSpectrumAliasedCandidate exercises the property PIANO depends on:
// a 25–35 kHz sinusoid sampled at 44.1 kHz is detectable at bin ⌊f/fs·N⌋ of
// the full-length spectrum even though f exceeds Nyquist.
func TestPowerSpectrumAliasedCandidate(t *testing.T) {
	const (
		n  = 4096
		fs = 44100.0
	)
	for _, freq := range []float64{25166.67, 30166.67, 34833.33} {
		x, err := Sine(freq, 500, 0.3, fs, n)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := PowerSpectrum(x)
		if err != nil {
			t.Fatal(err)
		}
		idx := BinIndex(freq, fs, n)
		got := BandPower(spec, idx, 5)
		if got < 0.8*500*500 {
			t.Errorf("freq %g Hz: band power %g too small (want ≳ %g)", freq, got, 0.8*500*500)
		}
	}
}

func TestBinIndex(t *testing.T) {
	// Paper setting: f=25 kHz, fs=44.1 kHz, N=4096 → ⌊25000/44100·4096⌋=2321.
	if got := BinIndex(25000, 44100, 4096); got != 2321 {
		t.Fatalf("BinIndex = %d, want 2321", got)
	}
	if got := BinIndex(0, 44100, 4096); got != 0 {
		t.Fatalf("BinIndex(0) = %d", got)
	}
}

func TestBandPowerClamping(t *testing.T) {
	spec := []float64{1, 2, 3, 4, 5}
	if got := BandPower(spec, 0, 2); got != 1+2+3 {
		t.Errorf("low clamp: got %g", got)
	}
	if got := BandPower(spec, 4, 2); got != 3+4+5 {
		t.Errorf("high clamp: got %g", got)
	}
	if got := BandPower(spec, 2, 0); got != 3 {
		t.Errorf("theta=0: got %g", got)
	}
}

func TestTotalPower(t *testing.T) {
	if got := TotalPower(nil); got != 0 {
		t.Errorf("TotalPower(nil) = %g", got)
	}
	x := []float64{3, -3, 3, -3}
	if got := TotalPower(x); got != 9 {
		t.Errorf("TotalPower = %g, want 9", got)
	}
}

// TestPowerSpectrumParsevalLike checks that white noise distributes power
// across bins with the expected total under our normalization.
func TestPowerSpectrumParsevalLike(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 2048
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	spec, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range spec {
		sum += p
	}
	// Parseval: Σ|X_k|² = N·Σx² ⇒ Σ(2|X_k|/N)² = 4Σx²/N = 4·TotalPower.
	if math.Abs(sum-4*TotalPower(x)) > 1e-6*sum {
		t.Fatalf("spectrum sum = %g, want %g", sum, 4*TotalPower(x))
	}
}

// PowerSpectrum computes the normalized power spectrum of a real-valued
// window, returning one power value per FFT bin over the full transform
// length (not folded at Nyquist).
//
// The normalization is chosen so that a sinusoid of amplitude A centered on
// bin k contributes power ≈ A² at bin k (and at its conjugate bin N−k).
// This matches the paper's parameterization where a reference sinusoid of
// time-domain amplitude 32000/n has R_f = (32000/n)².
//
// Returning the full-length spectrum matters for PIANO: the candidate
// frequencies live in [25 kHz, 35 kHz] while the sampling rate is 44.1 kHz,
// so the bin index ⌊f/fs·N⌋ used by Algorithm 2 lands above Nyquist — on the
// conjugate bin of the aliased component — which carries exactly the power
// of the (aliased) sinusoid. Folding the spectrum would break that indexing.
func PowerSpectrum(w []float64) ([]float64, error) {
	spec, err := FFTReal(w)
	if err != nil {
		return nil, fmt.Errorf("dsp: power spectrum: %w", err)
	}
	n := float64(len(w))
	out := make([]float64, len(spec))
	for i, c := range spec {
		mag := 2 * math.Hypot(real(c), imag(c)) / n
		out[i] = mag * mag
	}
	return out, nil
}
