package audio

import (
	"math"
	"sync/atomic"

	"github.com/acoustic-auth/piano/internal/dsp"
)

// sincHalfWidth is the one-sided length of the windowed-sinc interpolation
// kernel used for band-limited fractional delay; the kernel itself is
// defined once in dsp.SincDelayKernel (see dsp.SincHalfWidth for why a
// 48-tap Hann-windowed sinc and not linear interpolation) so that this
// per-tap mixer and the composite-kernel builder fold bit-identical
// coefficients.
const sincHalfWidth = dsp.SincHalfWidth

// Mix-call counters: cheap test instrumentation (one atomic add per mix
// call, never per sample) that lets the renderer's op-count tests assert
// "exactly one sparse-FIR convolution per play per path, zero per-tap sinc
// mixes" without build tags.
var (
	sincMixes      atomic.Uint64
	sparseFIRMixes atomic.Uint64
)

// SincMixCalls returns the number of MixFloatSincGain calls
// since process start.
func SincMixCalls() uint64 { return sincMixes.Load() }

// SparseFIRMixCalls returns the number of MixSparseFIR calls since process
// start.
func SparseFIRMixCalls() uint64 { return sparseFIRMixes.Load() }

// MixFloatSincGain adds src into dst starting at the (possibly fractional)
// sample offset, applying the fractional part as a band-limited delay via a
// Hann-windowed sinc kernel, with every source sample scaled by gain on
// the fly. This is the render hot path's per-tap mixer: folding the tap
// gain into the kernel accumulation removes the per-tap scaled-copy buffer
// the renderer used to allocate, with bit-identical results (the scale is
// applied to the source sample before the kernel product, exactly as the
// pre-scaled copy was).
func MixFloatSincGain(dst, src []float64, offset, gain float64) {
	sincMixes.Add(1)
	if len(src) == 0 || len(dst) == 0 {
		return
	}
	base := math.Floor(offset)
	frac := offset - base
	start := int(base)
	if frac < dsp.IntegerDelayEps {
		// Pure integer delay: add directly.
		for i, v := range src {
			di := start + i
			if di >= 0 && di < len(dst) {
				dst[di] += v * gain
			}
		}
		return
	}

	// Kernel h[k] for k in [-L+1, L]: delayed-by-frac band-limited
	// impulse, Hann-windowed.
	const l = sincHalfWidth
	var kernel [2 * l]float64
	dsp.SincDelayKernel(frac, &kernel)

	// Interior samples write their whole kernel inside dst, so the per-tap
	// destination range check can be hoisted out of the kernel loop; only
	// the few edge samples take the checked path. Accumulation order per
	// sample is unchanged (k ascending), so results are bit-identical to
	// the fully checked loop.
	safeLo := l - 1 - start
	if safeLo < 0 {
		safeLo = 0
	}
	safeHi := len(dst) - 1 - l - start
	if safeHi > len(src)-1 {
		safeHi = len(src) - 1
	}

	mixChecked := func(i int) {
		sv := src[i] * gain
		if sv == 0 {
			return
		}
		for k := -l + 1; k <= l; k++ {
			di := start + i + k
			if di >= 0 && di < len(dst) {
				dst[di] += sv * kernel[k+l-1]
			}
		}
	}
	for i := 0; i < safeLo && i < len(src); i++ {
		mixChecked(i)
	}
	kern := kernel[:]
	for i := safeLo; i <= safeHi; i++ {
		sv := src[i] * gain
		if sv == 0 {
			continue
		}
		out := dst[start+i-l+1:][:2*l]
		for k, kv := range kern {
			out[k] += sv * kv
		}
	}
	edgeLo := safeHi + 1
	if edgeLo < safeLo {
		edgeLo = safeLo
	}
	for i := edgeLo; i < len(src); i++ {
		mixChecked(i)
	}
}

// MixSparseFIR adds src convolved with the composite sparse kernel into dst:
// dst[seg.Start+n+i] += src[n]·seg.Coeffs[i] for every segment, source
// sample n, and coefficient i. One call replaces one MixFloatSincGain call
// per folded tap — the renderer's composite-kernel fast path (one
// convolution per play per path instead of one per tap). Allocation-free.
//
// Like MixFloatSincGain, the destination range check is hoisted out of the
// inner loop for interior samples; only edge samples take the checked path,
// with per-sample accumulation order unchanged, so results are bit-identical
// to a fully checked loop.
func MixSparseFIR(dst, src []float64, fir *dsp.SparseFIR) {
	sparseFIRMixes.Add(1)
	if len(src) == 0 || len(dst) == 0 || fir == nil {
		return
	}
	for si := range fir.Segments {
		seg := &fir.Segments[si]
		start := seg.Start
		width := len(seg.Coeffs)
		if width == 0 {
			continue
		}

		// src[i] writes dst[start+i : start+i+width]; interior samples are
		// those whose whole window is inside dst.
		safeLo := -start
		if safeLo < 0 {
			safeLo = 0
		}
		safeHi := len(dst) - width - start
		if safeHi > len(src)-1 {
			safeHi = len(src) - 1
		}

		mixChecked := func(i int) {
			sv := src[i]
			if sv == 0 {
				return
			}
			for k, c := range seg.Coeffs {
				di := start + i + k
				if di >= 0 && di < len(dst) {
					dst[di] += sv * c
				}
			}
		}
		for i := 0; i < safeLo && i < len(src); i++ {
			mixChecked(i)
		}
		coeffs := seg.Coeffs
		for i := safeLo; i <= safeHi; i++ {
			sv := src[i]
			if sv == 0 {
				continue
			}
			out := dst[start+i:][:width]
			for k, c := range coeffs {
				out[k] += sv * c
			}
		}
		edgeLo := safeHi + 1
		if edgeLo < safeLo {
			edgeLo = safeLo
		}
		for i := edgeLo; i < len(src); i++ {
			mixChecked(i)
		}
	}
}
