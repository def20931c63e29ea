package dsp

import (
	"fmt"
	"math"
)

// CrossCorrelate computes the normalized cross-correlation of the reference
// signal ref against every alignment in the longer sequence x, returning one
// coefficient per starting index (len(x)-len(ref)+1 values).
//
// This is the classical detector used by BeepBeep and by the ACTION-CC
// baseline of the paper's Fig. 2(b). PIANO itself does not use it — the
// whole point of the frequency-based detector is that cross-correlation
// collapses under the channel's frequency smoothing.
//
// The sliding dot products are evaluated with an FFT overlap-save scheme in
// O((n+m)·log m) instead of the naive O(n·m) inner loop, which is what kept
// the ACTION-CC baseline ~two orders of magnitude slower than PIANO in the
// benchmark suite. CrossCorrelateNaive (xcorr_test.go) retains the direct
// evaluation as a test oracle. Results agree with the oracle to floating-point rounding
// (~1e-12 relative), not bit-exactly.
func CrossCorrelate(x, ref []float64) ([]float64, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("dsp: cross-correlate: empty reference")
	}
	if len(x) < len(ref) {
		return nil, fmt.Errorf("dsp: cross-correlate: sequence (%d) shorter than reference (%d)", len(x), len(ref))
	}
	dots, err := slidingDotsFFT(x, ref)
	if err != nil {
		return nil, err
	}
	return normalizeSlidingDots(dots, x, ref), nil
}

// slidingDotsFFT computes dots[i] = Σ_j x[i+j]·ref[j] for every full
// alignment via overlap-save block correlation: each FFT block of length L
// yields L−m+1 wrap-free lags, so the whole sequence costs ⌈n/(L−m+1)⌉
// forward transforms plus one transform of the reference.
func slidingDotsFFT(x, ref []float64) ([]float64, error) {
	m := len(ref)
	nOut := len(x) - m + 1

	// Block length: ≥2m so most of each transform produces output, capped
	// at the single-block size when the input is short.
	fftLen := NextPowerOfTwo(4 * m)
	if single := NextPowerOfTwo(len(x)); single < fftLen {
		fftLen = single
	}
	if fftLen < NextPowerOfTwo(m) {
		fftLen = NextPowerOfTwo(m)
	}
	if fftLen < 2 {
		fftLen = 2
	}
	plan, err := SharedFFTPlan(fftLen)
	if err != nil {
		return nil, err
	}

	// Conjugated reference spectrum (correlation theorem: the spectrum of
	// the sliding dot products is X·conj(REF)).
	refSpec := make([]complex128, fftLen)
	for i, v := range ref {
		refSpec[i] = complex(v, 0)
	}
	if err := plan.Forward(refSpec); err != nil {
		return nil, err
	}
	for i, c := range refSpec {
		refSpec[i] = complex(real(c), -imag(c))
	}

	dots := make([]float64, nOut)
	block := make([]complex128, fftLen)
	step := fftLen - m + 1
	for start := 0; start < nOut; start += step {
		end := start + fftLen
		if end > len(x) {
			end = len(x)
		}
		for i := 0; i < end-start; i++ {
			block[i] = complex(x[start+i], 0)
		}
		for i := end - start; i < fftLen; i++ {
			block[i] = 0
		}
		if err := plan.Forward(block); err != nil {
			return nil, err
		}
		for i := range block {
			block[i] *= refSpec[i]
		}
		if err := plan.Inverse(block); err != nil {
			return nil, err
		}
		lim := step
		if start+lim > nOut {
			lim = nOut - start
		}
		for i := 0; i < lim; i++ {
			dots[start+i] = real(block[i])
		}
	}
	return dots, nil
}

// normalizeSlidingDots converts raw sliding dot products into normalized
// correlation coefficients, maintaining the window energy incrementally.
func normalizeSlidingDots(dots, x, ref []float64) []float64 {
	var refEnergy float64
	for _, v := range ref {
		refEnergy += v * v
	}
	refNorm := math.Sqrt(refEnergy)

	n := len(dots)
	out := make([]float64, n)
	var winEnergy float64
	for i := 0; i < len(ref); i++ {
		winEnergy += x[i] * x[i]
	}
	for i := 0; i < n; i++ {
		denom := refNorm * math.Sqrt(winEnergy)
		if denom > 0 {
			out[i] = dots[i] / denom
		}
		if i+1 < n {
			winEnergy += x[i+len(ref)]*x[i+len(ref)] - x[i]*x[i]
			if winEnergy < 0 {
				winEnergy = 0 // guard against accumulated rounding
			}
		}
	}
	return out
}

// ArgMax returns the index of the maximum value in x and the value itself,
// skipping NaN elements (a single NaN would otherwise poison every `>`
// comparison after it and silently return a wrong argmax). It returns
// (-1, -Inf) for an empty or all-NaN slice.
func ArgMax(x []float64) (int, float64) {
	best, bestIdx := math.Inf(-1), -1
	for i, v := range x {
		if v > best { // NaN > best is always false, so NaNs are skipped
			best, bestIdx = v, i
		}
	}
	return bestIdx, best
}
