package dsp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrNotPowerOfTwo is returned by transforms that require power-of-two input
// lengths (the radix-2 FFT used throughout PIANO, matching the paper's
// 4096-sample reference signals).
var ErrNotPowerOfTwo = errors.New("dsp: length is not a power of two")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

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

// NextPowerOfTwo returns the smallest power of two >= n (and 1 for n <= 0).
func NextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
