package dsp

import (
	"math"
	"sort"
)

// SincHalfWidth is the one-sided length L of the Hann-windowed sinc
// interpolation kernel used for band-limited fractional delay throughout the
// simulator. Linear interpolation is a 2-tap averaging filter that attenuates
// near-Nyquist content by up to −13 dB — fatal for PIANO's candidate band,
// which aliases to 9–19 kHz — so propagation delays are applied with a 48-tap
// Hann-windowed sinc that stays flat through the candidate band. This is the
// single source of truth for the kernel; audio.MixFloatSincGain and the
// composite-kernel builder below both evaluate it through SincDelayKernel, so
// the per-tap mixer and the folded sparse FIR use bit-identical coefficients.
const SincHalfWidth = 24

// SincKernelLen is the dense length (2L) of one fractional-delay kernel.
const SincKernelLen = 2 * SincHalfWidth

// IntegerDelayEps is the fractional-offset threshold below which a delay is
// treated as a pure integer shift (a single unit coefficient) instead of a
// full sinc kernel. It matches the historical audio.MixFloatSincGain fast
// path exactly, which is what keeps the composite kernel's tap folding
// faithful to the per-tap oracle.
const IntegerDelayEps = 1e-9

// SincDelayKernel fills k with the 2L-tap band-limited fractional-delay
// kernel for frac ∈ (0, 1): k[j+L−1] = sinc(j−frac)·hann(j−frac) for
// j ∈ [−L+1, L]. The Hann window is centered on the delayed impulse so the
// kernel sums to ~1 and stays flat through the candidate band.
func SincDelayKernel(frac float64, k *[SincKernelLen]float64) {
	const l = SincHalfWidth
	for j := -l + 1; j <= l; j++ {
		x := float64(j) - frac
		var s float64
		if math.Abs(x) < 1e-12 {
			s = 1
		} else {
			s = math.Sin(math.Pi*x) / (math.Pi * x)
		}
		// Hann window centered on the delayed impulse.
		w := 0.5 * (1 + math.Cos(math.Pi*x/float64(l)))
		if x < -float64(l) || x > float64(l) {
			w = 0
		}
		k[j+l-1] = s * w
	}
}

// FIRTap is one impulse-response component to fold into a SparseFIR: a
// (possibly fractional) delay in destination samples and an amplitude gain.
type FIRTap struct {
	Offset float64
	Gain   float64
}

// FIRSegment is one contiguous run of composite-kernel coefficients.
// Coeffs[i] weights dst[Start+i] for a source sample whose nominal (zero
// delay) destination index is 0; i.e. mixing src through the segment adds
// src[n]·Coeffs[i] into dst[Start+n+i].
type FIRSegment struct {
	Start  int
	Coeffs []float64
}

// SparseFIR is a precomputed sparse impulse response: several fractional-
// delay taps folded into a few dense coefficient segments. Taps closer than
// segmentMergeSlack destination samples coalesce into one segment (transducer
// smearing taps sit within a few samples of the direct path, so a typical
// path folds direct+transducer into one short segment plus one small segment
// per distant reflection cluster); applying the FIR therefore costs
// Σ len(segment) multiply-adds per source sample instead of taps·2L.
//
// A SparseFIR is immutable after construction and safe for concurrent reads.
type SparseFIR struct {
	Segments []FIRSegment
	// TapCount is the number of taps folded in (diagnostics and op-count
	// tests).
	TapCount int
}

// segmentMergeSlack is the largest gap (in destination samples) between two
// taps' kernel supports that still coalesces them into one dense segment.
// Bridging a small gap wastes a few zero-coefficient multiply-adds but saves
// per-segment loop overhead; distant reflections stay in their own segments,
// which is where the "sparse" in SparseFIR comes from.
const segmentMergeSlack = 16

// tapSupport returns the closed integer coefficient range [lo, hi] a tap
// occupies, mirroring audio.MixFloatSincGain: a pure integer delay is a
// single unit coefficient at floor(offset); a fractional delay spans the full
// kernel [floor−L+1, floor+L].
func tapSupport(offset float64) (lo, hi int, integer bool) {
	base := int(math.Floor(offset))
	frac := offset - math.Floor(offset)
	if frac < IntegerDelayEps {
		return base, base, true
	}
	return base - SincHalfWidth + 1, base + SincHalfWidth, false
}

// NewSparseFIR folds taps into a composite sparse kernel. Tap kernels are
// accumulated in tap order with coefficients ascending, so rebuilding from
// the same taps is bit-deterministic. The result owns its storage (two heap
// allocations regardless of tap count) and never aliases the input.
func NewSparseFIR(taps []FIRTap) *SparseFIR {
	f := &SparseFIR{TapCount: len(taps)}
	if len(taps) == 0 {
		return f
	}

	// Sort tap indices by support start to plan the merged segments.
	order := make([]int, len(taps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, _, _ := tapSupport(taps[order[a]].Offset)
		lb, _, _ := tapSupport(taps[order[b]].Offset)
		return la < lb
	})

	// Plan merged [lo, hi] coefficient ranges.
	type span struct{ lo, hi int }
	spans := make([]span, 0, 4)
	for _, ti := range order {
		lo, hi, _ := tapSupport(taps[ti].Offset)
		if n := len(spans); n > 0 && lo <= spans[n-1].hi+1+segmentMergeSlack {
			if hi > spans[n-1].hi {
				spans[n-1].hi = hi
			}
			continue
		}
		spans = append(spans, span{lo, hi})
	}

	// One backing array for every segment keeps the allocation count
	// constant in the tap count (the renderer's zero-alloc contract).
	total := 0
	for _, s := range spans {
		total += s.hi - s.lo + 1
	}
	backing := make([]float64, total)
	f.Segments = make([]FIRSegment, len(spans))
	at := 0
	for i, s := range spans {
		n := s.hi - s.lo + 1
		f.Segments[i] = FIRSegment{Start: s.lo, Coeffs: backing[at : at+n : at+n]}
		at += n
	}

	// Accumulate every tap's kernel into its segment, in original tap order.
	var kernel [SincKernelLen]float64
	for _, tap := range taps {
		lo, hi, integer := tapSupport(tap.Offset)
		seg := f.segmentContaining(lo)
		if integer {
			seg.Coeffs[lo-seg.Start] += tap.Gain
			continue
		}
		frac := tap.Offset - math.Floor(tap.Offset)
		SincDelayKernel(frac, &kernel)
		dst := seg.Coeffs[lo-seg.Start : hi-seg.Start+1]
		for j, kv := range kernel {
			dst[j] += tap.Gain * kv
		}
	}
	return f
}

// segmentContaining returns the segment whose range holds coefficient index
// lo. Segments are sorted and disjoint by construction.
func (f *SparseFIR) segmentContaining(lo int) *FIRSegment {
	i := sort.Search(len(f.Segments), func(i int) bool {
		seg := &f.Segments[i]
		return lo < seg.Start+len(seg.Coeffs)
	})
	return &f.Segments[i]
}
