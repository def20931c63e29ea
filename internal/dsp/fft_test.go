package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := DFTNaive(x)
		got := append([]complex128(nil), x...)
		if err := FFT(got); err != nil {
			t.Fatalf("FFT(n=%d): %v", n, err)
		}
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-7*float64(n) {
				t.Fatalf("n=%d bin %d: fft=%v dft=%v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 3, 5, 6, 100} {
		x := make([]complex128, n)
		if err := FFT(x); err == nil {
			t.Errorf("FFT accepted length %d", n)
		}
		if err := IFFT(x); err == nil {
			t.Errorf("IFFT accepted length %d", n)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := append([]complex128(nil), x...)
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	if err := IFFT(y); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-y[i]) > 1e-9 {
			t.Fatalf("round trip diverged at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, 512)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeEnergy += real(x[i]) * real(x[i])
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, c := range x {
		freqEnergy += real(c)*real(c) + imag(c)*imag(c)
	}
	freqEnergy /= float64(len(x))
	if !almostEqual(timeEnergy, freqEnergy, 1e-6*timeEnergy) {
		t.Fatalf("Parseval violated: time=%g freq=%g", timeEnergy, freqEnergy)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 64
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := 0; i < n; i++ {
			a[i] = complex(r.NormFloat64(), r.NormFloat64())
			b[i] = complex(r.NormFloat64(), r.NormFloat64())
			sum[i] = a[i] + b[i]
		}
		if err := FFT(a); err != nil {
			return false
		}
		if err := FFT(b); err != nil {
			return false
		}
		if err := FFT(sum); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFFTRealMatchesComplexPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 256)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got, err := FFTReal(x)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(x))
	for i, v := range x {
		want[i] = complex(v, 0)
	}
	if err := FFT(want); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("bin %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestFFTImpulseIsFlat(t *testing.T) {
	x := make([]complex128, 128)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, c := range x {
		if cmplx.Abs(c-1) > 1e-10 {
			t.Fatalf("impulse spectrum bin %d = %v, want 1", i, c)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 4095: 4096, 4096: 4096, 4097: 8192}
	for in, want := range cases {
		if got := NextPowerOfTwo(in); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 4096} {
		if !IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 4095} {
		if IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = true", n)
		}
	}
}

func BenchmarkFFT4096(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := FFT(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// DFTNaive computes the discrete Fourier transform directly in O(n²) time.
// It exists as a reference implementation for testing the FFT and is not
// used on any hot path.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * complex(math.Cos(angle), math.Sin(angle))
		}
		out[k] = sum
	}
	return out
}

// The legacy one-shot radix-2 engine below is the reference FFTPlan is
// checked against (TestFFTPlanForwardMatchesFFT,
// TestPowerSpectrumIntoMatchesPowerSpectrum); production transforms all run
// on FFTPlan.

// FFT computes the in-place decimation-in-time radix-2 fast Fourier
// transform of x. The length of x must be a power of two.
//
// The transform is unnormalized: FFT followed by IFFT returns the original
// sequence (IFFT applies the 1/N factor).
func FFT(x []complex128) error {
	if !IsPowerOfTwo(len(x)) {
		return fmt.Errorf("dsp: fft of %d samples: %w", len(x), ErrNotPowerOfTwo)
	}
	fftInPlace(x, false)
	return nil
}

// IFFT computes the in-place inverse FFT of x, including the 1/N
// normalization. The length of x must be a power of two.
func IFFT(x []complex128) error {
	if !IsPowerOfTwo(len(x)) {
		return fmt.Errorf("dsp: ifft of %d samples: %w", len(x), ErrNotPowerOfTwo)
	}
	fftInPlace(x, true)
	scale := 1 / float64(len(x))
	for i := range x {
		x[i] = complex(real(x[i])*scale, imag(x[i])*scale)
	}
	return nil
}

// fftInPlace runs the iterative Cooley-Tukey butterfly network. inverse
// selects the conjugated twiddle factors.
func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}

	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}

	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		// w = e^(i*step) applied incrementally per butterfly group.
		wStep := complex(math.Cos(step), math.Sin(step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// FFTReal transforms a real-valued sequence, returning the full complex
// spectrum of the same length. The input length must be a power of two.
func FFTReal(x []float64) ([]complex128, error) {
	if !IsPowerOfTwo(len(x)) {
		return nil, fmt.Errorf("dsp: fft of %d samples: %w", len(x), ErrNotPowerOfTwo)
	}
	buf := make([]complex128, len(x))
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	fftInPlace(buf, false)
	return buf, nil
}
