package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// relClose reports whether a and b agree to within tol relative error
// (falling back to absolute for tiny magnitudes).
func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return d <= tol
	}
	return d/scale <= tol
}

func randomWindow(n int, rng *rand.Rand) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 2*rng.Float64() - 1
	}
	return w
}

func TestFFTPlanValidation(t *testing.T) {
	if _, err := NewFFTPlan(0); err == nil {
		t.Error("length 0 accepted")
	}
	if _, err := NewFFTPlan(100); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := NewFFTPlan(1); err == nil {
		t.Error("length 1 accepted")
	}
	p, err := NewFFTPlan(64)
	if err != nil {
		t.Fatal(err)
	}
	if p.n != 64 {
		t.Fatalf("N = %d", p.n)
	}
	if err := p.Forward(make([]complex128, 32)); err == nil {
		t.Error("short Forward input accepted")
	}
	if err := p.PowerSpectrumInto(make([]float64, 64), make([]float64, 32), p.NewScratch()); err == nil {
		t.Error("short window accepted")
	}
	if err := p.PowerSpectrumInto(make([]float64, 32), make([]float64, 64), p.NewScratch()); err == nil {
		t.Error("short dst accepted")
	}
	if err := p.PowerSpectrumInto(make([]float64, 64), make([]float64, 64), nil); err == nil {
		t.Error("nil scratch accepted")
	}
}

// TestFFTPlanForwardMatchesFFT checks the planned complex transform agrees
// with the one-shot FFT. The fused radix-2² schedule rounds a few ULPs
// differently (its multiply-by-−i is exact where the table stores
// (6.1e-17, −1)), so the comparison is at 1e-10 relative — far tighter than
// the 1e-9 the engine promises.
func TestFFTPlanForwardMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 64, 512, 2048, 4096} {
		p, err := NewFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := append([]complex128(nil), x...)
		if err := FFT(want); err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := p.Forward(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !relClose(real(got[i]), real(want[i]), 1e-10) || !relClose(imag(got[i]), imag(want[i]), 1e-10) {
				t.Fatalf("n=%d: bin %d: plan %v != fft %v", n, i, got[i], want[i])
			}
		}
		// Round trip through Inverse.
		if err := p.Inverse(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !relClose(real(got[i]), real(x[i]), 1e-10) || !relClose(imag(got[i]), imag(x[i]), 1e-10) {
				t.Fatalf("n=%d: round trip bin %d: %v != %v", n, i, got[i], x[i])
			}
		}
	}
}

// TestPowerSpectrumIntoMatchesPowerSpectrum is the parity gate of the
// zero-alloc engine: the packed real path must reproduce the legacy
// full-complex PowerSpectrum to within 1e-9 on random windows.
func TestPowerSpectrumIntoMatchesPowerSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 16, 256, 4096} {
		p, err := NewFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		scratch := p.NewScratch()
		dst := make([]float64, n)
		for trial := 0; trial < 8; trial++ {
			w := randomWindow(n, rng)
			want, err := PowerSpectrum(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.PowerSpectrumInto(dst, w, scratch); err != nil {
				t.Fatal(err)
			}
			for k := range dst {
				if !relClose(dst[k], want[k], 1e-9) {
					t.Fatalf("n=%d trial=%d bin %d: plan %g, oracle %g", n, trial, k, dst[k], want[k])
				}
			}
		}
	}
}

// TestPowerSpectrumIntoAliasedSine checks the plan keeps the above-Nyquist
// conjugate-bin indexing Algorithm 2 depends on.
func TestPowerSpectrumIntoAliasedSine(t *testing.T) {
	const n = 4096
	const fs = 44100.0
	p, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{25000, 30017, 34961} {
		x, err := Sine(f, 1.0, 0, fs, n)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, n)
		if err := p.PowerSpectrumInto(dst, x, p.NewScratch()); err != nil {
			t.Fatal(err)
		}
		bin := BinIndex(f, fs, n)
		got := BandPower(dst, bin, 2)
		if got < 0.5 || got > 2.0 {
			t.Fatalf("f=%g: band power %g, want ≈1", f, got)
		}
	}
}

func TestSharedFFTPlanCaches(t *testing.T) {
	a, err := SharedFFTPlan(1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedFFTPlan(1024)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("shared plan not cached")
	}
	if _, err := SharedFFTPlan(1000); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

// TestPowerSpectrumIntoZeroAlloc asserts the steady-state spectrum path
// performs no heap allocations per window.
func TestPowerSpectrumIntoZeroAlloc(t *testing.T) {
	const n = 4096
	p, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	scratch := p.NewScratch()
	dst := make([]float64, n)
	w := randomWindow(n, rand.New(rand.NewSource(3)))
	allocs := testing.AllocsPerRun(50, func() {
		if err := p.PowerSpectrumInto(dst, w, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PowerSpectrumInto allocates %g per window, want 0", allocs)
	}
}

func BenchmarkPowerSpectrum(b *testing.B) {
	w := randomWindow(4096, rand.New(rand.NewSource(4)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PowerSpectrum(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPowerSpectrumInto(b *testing.B) {
	w := randomWindow(4096, rand.New(rand.NewSource(4)))
	p, err := NewFFTPlan(4096)
	if err != nil {
		b.Fatal(err)
	}
	scratch := p.NewScratch()
	dst := make([]float64, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.PowerSpectrumInto(dst, w, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
