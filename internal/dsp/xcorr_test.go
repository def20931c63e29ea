package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestCrossCorrelateFindsCleanEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ref := make([]float64, 256)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	x := make([]float64, 2048)
	for i := range x {
		x[i] = 0.01 * rng.NormFloat64()
	}
	const at = 700
	for i, v := range ref {
		x[at+i] += v
	}
	corr, err := CrossCorrelate(x, ref)
	if err != nil {
		t.Fatal(err)
	}
	idx, val := ArgMax(corr)
	if idx != at {
		t.Fatalf("peak at %d, want %d", idx, at)
	}
	if val < 0.9 {
		t.Fatalf("peak correlation %g too low", val)
	}
}

func TestCrossCorrelateErrors(t *testing.T) {
	if _, err := CrossCorrelate([]float64{1, 2}, nil); err == nil {
		t.Error("empty reference accepted")
	}
	if _, err := CrossCorrelate([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("reference longer than sequence accepted")
	}
}

func TestCrossCorrelatePeakIsNormalized(t *testing.T) {
	ref := []float64{1, -1, 1, -1}
	x := make([]float64, 32)
	copy(x[10:], ref)
	corr, err := CrossCorrelate(x, ref)
	if err != nil {
		t.Fatal(err)
	}
	_, val := ArgMax(corr)
	if math.Abs(val-1) > 1e-9 {
		t.Fatalf("self-match correlation = %g, want 1", val)
	}
}

func TestArgMaxEmpty(t *testing.T) {
	idx, val := ArgMax(nil)
	if idx != -1 || !math.IsInf(val, -1) {
		t.Fatalf("ArgMax(nil) = %d, %g", idx, val)
	}
}

// TestArgMaxSkipsNaN is the regression test for NaN poisoning: NaN elements
// must never win the comparison or mask a later finite maximum.
func TestArgMaxSkipsNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		x       []float64
		wantIdx int
		wantVal float64
	}{
		{[]float64{nan, 1, 3, 2}, 2, 3},
		{[]float64{1, nan, 3, nan, 2}, 2, 3},
		{[]float64{3, 2, nan}, 0, 3},
		{[]float64{nan, nan, -5}, 2, -5},
	}
	for _, c := range cases {
		idx, val := ArgMax(c.x)
		if idx != c.wantIdx || val != c.wantVal {
			t.Errorf("ArgMax(%v) = (%d, %g), want (%d, %g)", c.x, idx, val, c.wantIdx, c.wantVal)
		}
	}
	// All-NaN behaves like empty.
	idx, val := ArgMax([]float64{nan, nan})
	if idx != -1 || !math.IsInf(val, -1) {
		t.Errorf("ArgMax(all-NaN) = (%d, %g), want (-1, -Inf)", idx, val)
	}
}

// TestCrossCorrelateFFTMatchesNaiveOracle validates the overlap-save path
// against the retained direct evaluation over a sweep of shapes, including
// block-boundary-straddling sizes.
func TestCrossCorrelateFFTMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ n, m int }{
		{1, 1}, {7, 3}, {64, 64}, {100, 33}, {1000, 256},
		{4097, 512}, {10000, 1024}, {3000, 1000},
	}
	for _, s := range shapes {
		x := make([]float64, s.n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ref := make([]float64, s.m)
		for i := range ref {
			ref[i] = rng.NormFloat64()
		}
		want, err := CrossCorrelateNaive(x, ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CrossCorrelate(x, ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d m=%d: length %d, want %d", s.n, s.m, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d m=%d: corr[%d] = %g, oracle %g", s.n, s.m, i, got[i], want[i])
			}
		}
	}
}

func TestCrossCorrelateNaiveErrors(t *testing.T) {
	if _, err := CrossCorrelateNaive([]float64{1, 2}, nil); err == nil {
		t.Error("empty reference accepted")
	}
	if _, err := CrossCorrelateNaive([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("reference longer than sequence accepted")
	}
}

func BenchmarkCrossCorrelateFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	x := make([]float64, 52920) // one 1.2 s recording at 44.1 kHz
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref := make([]float64, 4096)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CrossCorrelate(x, ref); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossCorrelateNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	x := make([]float64, 52920)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref := make([]float64, 4096)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CrossCorrelateNaive(x, ref); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSineErrors(t *testing.T) {
	if _, err := Sine(1000, 1, 0, 0, 10); err == nil {
		t.Error("zero sample rate accepted")
	}
	if _, err := Sine(1000, 1, 0, 44100, -1); err == nil {
		t.Error("negative length accepted")
	}
}

func TestPeakAbs(t *testing.T) {
	if got := PeakAbs([]float64{-5, 3}); got != 5 {
		t.Fatalf("PeakAbs = %g", got)
	}
}

// CrossCorrelateNaive is the direct O(n·m) evaluation of CrossCorrelate,
// kept as the reference implementation for testing the FFT path. Both
// functions share the same normalization.
func CrossCorrelateNaive(x, ref []float64) ([]float64, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("dsp: cross-correlate: empty reference")
	}
	if len(x) < len(ref) {
		return nil, fmt.Errorf("dsp: cross-correlate: sequence (%d) shorter than reference (%d)", len(x), len(ref))
	}
	n := len(x) - len(ref) + 1
	dots := make([]float64, n)
	for i := 0; i < n; i++ {
		var dot float64
		for j, r := range ref {
			dot += x[i+j] * r
		}
		dots[i] = dot
	}
	return normalizeSlidingDots(dots, x, ref), nil
}
