package dsp

import (
	"math"
	"testing"
)

func TestNewSparseFIRSingleFractionalTap(t *testing.T) {
	const offset, gain = 10.3, 0.7
	f := NewSparseFIR([]FIRTap{{Offset: offset, Gain: gain}})
	if f.TapCount != 1 {
		t.Fatalf("TapCount = %d, want 1", f.TapCount)
	}
	if len(f.Segments) != 1 {
		t.Fatalf("segments = %d, want 1", len(f.Segments))
	}
	seg := f.Segments[0]
	wantStart := 10 - SincHalfWidth + 1
	if seg.Start != wantStart {
		t.Fatalf("Start = %d, want %d", seg.Start, wantStart)
	}
	if len(seg.Coeffs) != SincKernelLen {
		t.Fatalf("width = %d, want %d", len(seg.Coeffs), SincKernelLen)
	}
	// frac must be derived exactly as the builder derives it (offset −
	// floor(offset) ≠ the literal 0.3 by one ulp).
	var kernel [SincKernelLen]float64
	SincDelayKernel(offset-math.Floor(offset), &kernel)
	for i, c := range seg.Coeffs {
		if want := gain * kernel[i]; c != want {
			t.Fatalf("coeff %d = %g, want %g", i, c, want)
		}
	}
}

func TestNewSparseFIRIntegerTapIsImpulse(t *testing.T) {
	f := NewSparseFIR([]FIRTap{{Offset: 5, Gain: 0.25}})
	if len(f.Segments) != 1 {
		t.Fatalf("segments = %d, want 1", len(f.Segments))
	}
	seg := f.Segments[0]
	if seg.Start != 5 || len(seg.Coeffs) != 1 || seg.Coeffs[0] != 0.25 {
		t.Fatalf("integer tap folded as %+v, want unit impulse 0.25 at 5", seg)
	}
	// A fractional offset just under the integer threshold takes the same
	// impulse path as audio.MixFloatSincGain.
	f = NewSparseFIR([]FIRTap{{Offset: 5 + IntegerDelayEps/2, Gain: 1}})
	if len(f.Segments[0].Coeffs) != 1 {
		t.Fatalf("offset within IntegerDelayEps not folded as impulse: width %d", len(f.Segments[0].Coeffs))
	}
}

func TestNewSparseFIRMergesCloseTapsSplitsDistant(t *testing.T) {
	// Two taps 3 samples apart: their kernel supports overlap → one segment.
	close := NewSparseFIR([]FIRTap{{Offset: 0.5, Gain: 1}, {Offset: 3.5, Gain: 0.1}})
	if len(close.Segments) != 1 {
		t.Fatalf("close taps: %d segments, want 1", len(close.Segments))
	}
	if w := firWidth(close); w != SincKernelLen+3 {
		t.Fatalf("close taps width = %d, want %d", w, SincKernelLen+3)
	}
	// Two taps 500 samples apart: far beyond the merge slack → two segments.
	far := NewSparseFIR([]FIRTap{{Offset: 0.5, Gain: 1}, {Offset: 500.5, Gain: 0.1}})
	if len(far.Segments) != 2 {
		t.Fatalf("far taps: %d segments, want 2", len(far.Segments))
	}
	if w := firWidth(far); w != 2*SincKernelLen {
		t.Fatalf("far taps width = %d, want %d", w, 2*SincKernelLen)
	}
	if far.Segments[0].Start >= far.Segments[1].Start {
		t.Fatalf("segments not sorted: %d, %d", far.Segments[0].Start, far.Segments[1].Start)
	}
}

func TestNewSparseFIRAccumulatesCoincidentTaps(t *testing.T) {
	one := NewSparseFIR([]FIRTap{{Offset: 7.25, Gain: 0.6}})
	two := NewSparseFIR([]FIRTap{{Offset: 7.25, Gain: 0.2}, {Offset: 7.25, Gain: 0.4}})
	if len(two.Segments) != 1 {
		t.Fatalf("segments = %d, want 1", len(two.Segments))
	}
	for i, c := range two.Segments[0].Coeffs {
		want := one.Segments[0].Coeffs[i]
		if math.Abs(c-want) > 1e-15*math.Abs(want)+1e-18 {
			t.Fatalf("coeff %d = %g, want %g", i, c, want)
		}
	}
}

func TestNewSparseFIREmptyAndDeterministic(t *testing.T) {
	if f := NewSparseFIR(nil); len(f.Segments) != 0 || f.TapCount != 0 || firWidth(f) != 0 {
		t.Fatalf("empty tap set folded to %+v", f)
	}
	taps := []FIRTap{{Offset: 12.7, Gain: 0.3}, {Offset: 90.1, Gain: -0.05}, {Offset: 14, Gain: 0.9}}
	a, b := NewSparseFIR(taps), NewSparseFIR(taps)
	if len(a.Segments) != len(b.Segments) {
		t.Fatalf("segment counts differ: %d vs %d", len(a.Segments), len(b.Segments))
	}
	for s := range a.Segments {
		if a.Segments[s].Start != b.Segments[s].Start {
			t.Fatalf("segment %d starts differ", s)
		}
		for i := range a.Segments[s].Coeffs {
			if a.Segments[s].Coeffs[i] != b.Segments[s].Coeffs[i] {
				t.Fatalf("rebuild not bit-deterministic at segment %d coeff %d", s, i)
			}
		}
	}
}

// firWidth is the total number of stored coefficients across all segments
// — the per-source-sample multiply-add cost of MixSparseFIR.
func firWidth(f *SparseFIR) int {
	w := 0
	for _, seg := range f.Segments {
		w += len(seg.Coeffs)
	}
	return w
}
