package dsp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// ErrNotPowerOfTwo is returned for a transform length that is not a power of
// two (FFTPlan's radix-2 tables; the paper's reference signals are 4096
// samples long).
var ErrNotPowerOfTwo = errors.New("dsp: length is not a power of two")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n (and 1 for n <= 0).
func NextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// FFTPlan holds the precomputed machinery for repeated transforms of one
// fixed power-of-two length: the bit-reversal permutation, the per-stage
// twiddle factors, and the half-length tables plus unpack twiddles that let
// a real-input transform run as a packed half-length complex FFT.
//
// A plan is immutable after construction and safe for concurrent use; the
// per-call scratch lives in the caller (see NewScratch), so one plan can be
// shared by a pool of workers. Building a plan costs O(n) memory and time;
// detection hot paths build one per window length and reuse it for every
// window, with no per-window twiddle recomputation or buffer churn. FFTPlan
// is the package's only transform engine; the dsp tests keep the one-shot
// radix-2 FFT/PowerSpectrum it replaced as their reference.
type FFTPlan struct {
	n    int // real-input transform length
	half int // packed complex transform length (n/2)

	fullT fftTables // tables for length-n complex transforms
	halfT fftTables // tables for length-n/2 packed real transforms

	// unpack[k] = e^{-2πik/n}, k in [0, n/2): the split twiddles that
	// recombine the packed half-length spectrum into the real-input
	// spectrum.
	unpack []complex128

	// rots caches immutable per-band rotation tables (bandRot) for the
	// sliding-DFT engine, keyed by lo<<32|hi. The cache is append-only and
	// lock-free on the read path; it does not affect the plan's logical
	// immutability (every table for a given band is identical).
	rots sync.Map
}

// fftTables is the immutable butterfly schedule for one transform length.
type fftTables struct {
	n      int
	bitrev []int32
	// twiddle is the forward-transform factor table, flattened over stages:
	// the stage with half-size h (h = 1, 2, 4, …, n/2) owns
	// twiddle[h-1 : 2h-1], whose k-th entry is e^(-2πik/(2h)).
	twiddle []complex128
}

func newFFTTables(n int) fftTables {
	t := fftTables{n: n}
	if n <= 1 {
		return t
	}
	t.bitrev = make([]int32, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		t.bitrev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	t.twiddle = make([]complex128, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := -2 * math.Pi / float64(size)
		wStep := complex(math.Cos(step), math.Sin(step))
		// Generate the factors with the same incremental recurrence the
		// one-shot FFT uses, so planned and unplanned transforms agree to
		// the last bit.
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			t.twiddle[half-1+k] = w
			w *= wStep
		}
	}
	return t
}

// transform runs the in-place butterfly network over x (len == t.n) using
// the precomputed tables. inverse conjugates the twiddles; normalization is
// left to the caller.
//
// Stages run in fused pairs (the radix-2² schedule): each pair combines the
// two radix-2 butterflies into one 4-point kernel that keeps intermediates
// in registers and needs only 3 complex multiplies per 4 outputs — the
// fourth twiddle of the pair is w·e^(-iπ/2), applied as an exact
// multiply-by-(−i) (swap and negate). That substitution makes the result
// differ from the one-shot radix-2 FFT by a few ULPs (e^(-iπ/2) rounds to
// (6.1e-17, −1) in the table), which is why planned transforms promise 1e-9
// agreement with the legacy path rather than bit equality. The schedule is
// fixed, so planned transforms are bit-reproducible run to run.
func (t *fftTables) transform(x []complex128, inverse bool) {
	n := t.n
	if n <= 1 {
		return
	}
	for i := 1; i < n; i++ {
		j := int(t.bitrev[i])
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	h0 := 1
	if t.stages()%2 == 1 {
		// Odd stage count: one plain radix-2 stage (twiddle 1), then pairs.
		for s := 0; s+1 < n; s += 2 {
			a, b := x[s], x[s+1]
			x[s], x[s+1] = a+b, a-b
		}
		h0 = 2
	}
	t.pairStages(x, h0, inverse)
}

func (t *fftTables) stages() int {
	stages := 0
	for v := t.n; v > 1; v >>= 1 {
		stages++
	}
	return stages
}

// pairStages runs the fused radix-2² stage pairs from half-size h0 upward,
// assuming x is already bit-reverse permuted and (when the stage count is
// odd) the first plain radix-2 stage has been applied.
func (t *fftTables) pairStages(x []complex128, h0 int, inverse bool) {
	n := t.n
	for h := h0; 4*h <= n; h *= 4 {
		quad := 4 * h
		// Slice every operand to exactly h so the loop condition j < h
		// proves all six indexings in range (bounds-check-free inner loop).
		twA := t.twiddle[h-1 : 2*h-1][:h]     // first stage of the pair (size 2h)
		twB := t.twiddle[2*h-1 : 2*h-1+h][:h] // second stage (size 4h); only the first h entries are needed
		for start := 0; start < n; start += quad {
			q0 := x[start : start+h : start+h][:h]
			q1 := x[start+h : start+2*h : start+2*h][:h]
			q2 := x[start+2*h : start+3*h : start+3*h][:h]
			q3 := x[start+3*h : start+quad : start+quad][:h]
			if inverse {
				for j := 0; j < h; j++ {
					wa := twA[j]
					wb := twB[j]
					wa = complex(real(wa), -imag(wa))
					wb = complex(real(wb), -imag(wb))
					p0, p1, p2, p3 := q0[j], q1[j], q2[j], q3[j]
					t1 := p1 * wa
					t3 := p3 * wa
					a0, a1 := p0+t1, p0-t1
					a2, a3 := p2+t3, p2-t3
					u2 := a2 * wb
					v := a3 * wb
					u3 := complex(-imag(v), real(v)) // +i·v (conjugate of −i)
					q0[j] = a0 + u2
					q2[j] = a0 - u2
					q1[j] = a1 + u3
					q3[j] = a1 - u3
				}
			} else {
				for j := 0; j < h; j++ {
					wa := twA[j]
					wb := twB[j]
					p0, p1, p2, p3 := q0[j], q1[j], q2[j], q3[j]
					t1 := p1 * wa
					t3 := p3 * wa
					a0, a1 := p0+t1, p0-t1
					a2, a3 := p2+t3, p2-t3
					u2 := a2 * wb
					v := a3 * wb
					u3 := complex(imag(v), -real(v)) // −i·v, exact
					q0[j] = a0 + u2
					q2[j] = a0 - u2
					q1[j] = a1 + u3
					q3[j] = a1 - u3
				}
			}
		}
	}
}

// NewFFTPlan builds a plan for real-input transforms of length n (a power of
// two, n ≥ 2).
func NewFFTPlan(n int) (*FFTPlan, error) {
	if !IsPowerOfTwo(n) || n < 2 {
		return nil, fmt.Errorf("dsp: fft plan of %d samples: %w", n, ErrNotPowerOfTwo)
	}
	p := &FFTPlan{
		n:     n,
		half:  n / 2,
		fullT: newFFTTables(n),
		halfT: newFFTTables(n / 2),
	}
	p.unpack = make([]complex128, p.half)
	for k := 0; k < p.half; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.unpack[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return p, nil
}

// sharedPlans caches one immutable plan per length so independent hot paths
// (detection workers, cross-correlation blocks) share twiddle tables instead
// of rebuilding them. Plans are never evicted; only a handful of lengths
// occur in practice.
var sharedPlans sync.Map // int → *FFTPlan

// SharedFFTPlan returns a process-wide cached plan for length n, building it
// on first use. The returned plan is immutable and safe for concurrent use.
func SharedFFTPlan(n int) (*FFTPlan, error) {
	if p, ok := sharedPlans.Load(n); ok {
		return p.(*FFTPlan), nil
	}
	p, err := NewFFTPlan(n)
	if err != nil {
		return nil, err
	}
	actual, _ := sharedPlans.LoadOrStore(n, p)
	return actual.(*FFTPlan), nil
}

// NewScratch allocates the complex workspace one goroutine needs to run the
// plan's real-input transforms. Scratch is reused across calls; allocate one
// per worker, not per window.
func (p *FFTPlan) NewScratch() []complex128 {
	return make([]complex128, p.half)
}

// realSample constrains the sample representations the packed real-input
// transforms ingest: float64 samples, or raw int16 PCM whose widening
// conversion is fused into the pack stage. float64(int16) is exact for every
// representable value, so the PCM instantiations are bit-identical to
// converting the recording up front with audio.ToFloat — minus the 4×-sized
// copy and its allocation.
type realSample interface{ ~float64 | ~int16 }

// Forward computes the in-place unnormalized FFT of x (len == N) using the
// precomputed tables. It matches a plain radix-2 FFT to within a few ULPs
// (the fused radix-2² schedule rounds differently), i.e. well inside 1e-9
// relative.
func (p *FFTPlan) Forward(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("dsp: fft plan length %d, input %d", p.n, len(x))
	}
	p.fullT.transform(x, false)
	return nil
}

// Inverse computes the in-place inverse FFT of x (len == N) including the
// 1/N normalization, matching a plain radix-2 inverse to within a few ULPs
// (see Forward).
func (p *FFTPlan) Inverse(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("dsp: fft plan length %d, input %d", p.n, len(x))
	}
	p.fullT.transform(x, true)
	scale := 1 / float64(p.n)
	for i := range x {
		x[i] = complex(real(x[i])*scale, imag(x[i])*scale)
	}
	return nil
}

// PowerSpectrumInto computes the normalized power spectrum of a real window
// over the full transform length (not folded at Nyquist), writing into dst
// (len == N) with zero heap allocations. scratch must come from NewScratch
// (len == N/2) and is clobbered.
//
// The normalization makes a sinusoid of amplitude A centered on bin k
// contribute power ≈ A² at bin k (and at its conjugate bin N−k), matching
// the paper's R_f = (32000/n)² parameterization. The full length matters:
// PIANO's candidate frequencies (25–35 kHz) lie above Nyquist at 44.1 kHz,
// so Algorithm 2's bin ⌊f/fs·N⌋ lands on the conjugate bin of the aliased
// component, which carries exactly its power.
//
// The real input is packed into a half-length complex sequence (evens in the
// real lane, odds in the imaginary lane), transformed with the half-length
// tables, and unpacked with the split twiddles — half the butterflies of the
// full-length complex path. Power is then 4(Re²+Im²)/N² per bin, avoiding
// a per-bin Hypot+square; bins above Nyquist mirror their conjugates. Results
// match the textbook |X[k]|·2/N squared to within a few ULPs.
func (p *FFTPlan) PowerSpectrumInto(dst, window []float64, scratch []complex128) error {
	return powerSpectrumBandInto(p, dst, window, scratch, 0, p.half+1)
}

// PowerSpectrumBandInto is PowerSpectrumInto restricted to the canonical
// half-spectrum bin range [lo, hi): only dst[k] — and its conjugate mirror
// dst[N−k] for 0 < k < N/2 — is written for k in the band; every other
// entry of dst is left untouched (stale). Callers that only read a known
// band (Algorithm 2's candidate band is ~45% of the bins at the paper's
// parameters) skip the rest of the split-twiddle unpack, which costs about
// as much per bin as the FFT butterflies it follows.
//
// Bounds: 0 ≤ lo < hi ≤ N/2+1 (hi = N/2+1 includes the Nyquist bin). The
// written bins are bit-identical to a full PowerSpectrumInto call — the
// band loop runs exactly the same arithmetic on the same packed transform.
func (p *FFTPlan) PowerSpectrumBandInto(dst, window []float64, scratch []complex128, lo, hi int) error {
	return powerSpectrumBandInto(p, dst, window, scratch, lo, hi)
}

// PowerSpectrumBandIntoPCM is PowerSpectrumBandInto over raw int16 PCM: the
// int16→float64 widening is fused into the transform's pack stage, so the
// caller never materializes a float copy of the window. Written bins are
// bit-identical to converting the window with audio.ToFloat first (the
// conversion is exact).
func (p *FFTPlan) PowerSpectrumBandIntoPCM(dst []float64, window []int16, scratch []complex128, lo, hi int) error {
	return powerSpectrumBandInto(p, dst, window, scratch, lo, hi)
}

// powerSpectrumBandInto is the shared generic core of the power-spectrum
// entry points, instantiated per sample representation (see realSample).
func powerSpectrumBandInto[T realSample](p *FFTPlan, dst []float64, window []T, scratch []complex128, lo, hi int) error {
	if len(window) != p.n {
		return fmt.Errorf("dsp: power spectrum plan length %d, window %d", p.n, len(window))
	}
	if len(dst) != p.n {
		return fmt.Errorf("dsp: power spectrum dst length %d, want %d", len(dst), p.n)
	}
	if len(scratch) < p.half {
		return fmt.Errorf("dsp: power spectrum scratch length %d, want %d", len(scratch), p.half)
	}
	if lo < 0 || hi <= lo || hi > p.half+1 {
		return fmt.Errorf("dsp: power spectrum band [%d, %d) outside [0, %d]", lo, hi, p.half+1)
	}
	packedHalfTransform(p, window, scratch)
	p.unpackPowerBand(dst, scratch, lo, hi)
	return nil
}

// packedHalfTransform packs the real window into scratch (evens in the real
// lane, odds in the imaginary lane) and runs the half-length transform in
// place, leaving scratch[:N/2] holding Z[k].
//
// The pack is fused with the transform's bit-reversal permutation (gather:
// output slot k reads input index bitrev[k], since the permutation is an
// involution) and, when the stage count is odd, with the first plain
// radix-2 stage — one pass over the data instead of three. The arithmetic
// per output is unchanged, so results are bit-identical to pack + the
// generic transform. Generic over the sample representation: the int16
// instantiation additionally fuses the PCM widening conversion into the
// same pass (float64(int16) is exact, so it changes no bits either).
func packedHalfTransform[T realSample](p *FFTPlan, window []T, scratch []complex128) {
	h := p.half
	z := scratch[:h]
	t := &p.halfT
	if h == 1 {
		z[0] = complex(float64(window[0]), float64(window[1]))
		return
	}
	if t.stages()%2 == 1 {
		for s := 0; s+1 < h; s += 2 {
			ia := 2 * int(t.bitrev[s])
			ib := 2 * int(t.bitrev[s+1])
			a := complex(float64(window[ia]), float64(window[ia+1]))
			b := complex(float64(window[ib]), float64(window[ib+1]))
			z[s], z[s+1] = a+b, a-b
		}
		t.pairStages(z, 2, false)
		return
	}
	for k := 0; k < h; k++ {
		i := 2 * int(t.bitrev[k])
		z[k] = complex(float64(window[i]), float64(window[i+1]))
	}
	t.pairStages(z, 1, false)
}

// unpackPowerBand recombines the packed half-length spectrum in scratch into
// normalized power for canonical bins [lo, hi), mirroring interior bins to
// their conjugates as PowerSpectrumInto's full-length output does.
func (p *FFTPlan) unpackPowerBand(dst []float64, scratch []complex128, lo, hi int) {
	h := p.half
	z := scratch[:h]

	// norm = (2/N)² applied to |X[k]|².
	invN := 2 / float64(p.n)
	norm := invN * invN

	// DC and Nyquist bins are real: X[0] = Re+Im, X[N/2] = Re−Im of Z[0].
	re0, im0 := real(z[0]), imag(z[0])
	if lo == 0 {
		dc := re0 + im0
		dst[0] = dc * dc * norm
		lo = 1
	}
	if hi == h+1 {
		ny := re0 - im0
		dst[h] = ny * ny * norm
		hi = h
	}

	// Reindex the four streams onto [0, hi−lo) so every access is provably
	// in range (no per-bin bounds checks): zf/df walk forward from lo,
	// zc/dc walk the conjugate mirrors backward.
	m := hi - lo
	zf := z[lo:hi][:m]
	zc := z[h-hi+1 : h-lo+1][:m] // zc[m-1-j] == z[h-(lo+j)]
	up := p.unpack[lo:hi][:m]
	df := dst[lo:hi][:m]
	dc2 := dst[p.n-hi+1 : p.n-lo+1][:m] // dc2[m-1-j] == dst[n-(lo+j)]
	for j := 0; j < m; j++ {
		zk := zf[j]
		zq := zc[m-1-j]
		// Even/odd split: Fe = (Z[k]+conj(Z[h−k]))/2, Fo = (Z[k]−conj(Z[h−k]))/(2i).
		feR := (real(zk) + real(zq)) / 2
		feI := (imag(zk) - imag(zq)) / 2
		foR := (imag(zk) + imag(zq)) / 2
		foI := (real(zq) - real(zk)) / 2
		// X[k] = Fe + unpack[k]·Fo.
		w := up[j]
		xr := feR + real(w)*foR - imag(w)*foI
		xi := feI + real(w)*foI + imag(w)*foR
		pw := (xr*xr + xi*xi) * norm
		df[j] = pw
		dc2[m-1-j] = pw
	}
}

// BandSpectrumInto writes the raw (unnormalized) real-input DFT values
// X[k] = Σ_j window[j]·e^(−2πijk/N) for canonical bins k in [lo, hi) into
// the split re/im slices (SoA layout, len ≥ hi−lo), via the same packed
// half-length transform + split-twiddle unpack as PowerSpectrumBandInto.
// This is the resynchronization primitive of SlidingBandDFT; power follows
// as (re²+im²)·(2/N)², matching PowerSpectrumInto's normalization exactly.
func (p *FFTPlan) BandSpectrumInto(re, im, window []float64, scratch []complex128, lo, hi int) error {
	return bandSpectrumInto(p, re, im, window, scratch, lo, hi)
}

// BandSpectrumIntoPCM is BandSpectrumInto over raw int16 PCM with the
// widening conversion fused into the pack stage (see
// PowerSpectrumBandIntoPCM); written values are bit-identical to converting
// the window to float64 first.
func (p *FFTPlan) BandSpectrumIntoPCM(re, im []float64, window []int16, scratch []complex128, lo, hi int) error {
	return bandSpectrumInto(p, re, im, window, scratch, lo, hi)
}

// bandSpectrumInto is the shared generic core of the band-spectrum entry
// points, instantiated per sample representation (see realSample).
func bandSpectrumInto[T realSample](p *FFTPlan, re, im []float64, window []T, scratch []complex128, lo, hi int) error {
	if len(window) != p.n {
		return fmt.Errorf("dsp: band spectrum plan length %d, window %d", p.n, len(window))
	}
	if lo < 0 || hi <= lo || hi > p.half+1 {
		return fmt.Errorf("dsp: band spectrum band [%d, %d) outside [0, %d]", lo, hi, p.half+1)
	}
	if len(re) < hi-lo || len(im) < hi-lo {
		return fmt.Errorf("dsp: band spectrum re/im length %d/%d, want ≥ %d", len(re), len(im), hi-lo)
	}
	if len(scratch) < p.half {
		return fmt.Errorf("dsp: band spectrum scratch length %d, want %d", len(scratch), p.half)
	}
	packedHalfTransform(p, window, scratch)
	h := p.half
	z := scratch[:h]
	re0, im0 := real(z[0]), imag(z[0])
	for k := lo; k < hi; k++ {
		switch k {
		case 0:
			re[k-lo], im[k-lo] = re0+im0, 0
		case h:
			re[k-lo], im[k-lo] = re0-im0, 0
		default:
			zk := z[k]
			zc := z[h-k]
			feR := (real(zk) + real(zc)) / 2
			feI := (imag(zk) - imag(zc)) / 2
			foR := (imag(zk) + imag(zc)) / 2
			foI := (real(zc) - real(zk)) / 2
			w := p.unpack[k]
			re[k-lo] = feR + real(w)*foR - imag(w)*foI
			im[k-lo] = feI + real(w)*foI + imag(w)*foR
		}
	}
	return nil
}

// bandRot is the immutable single-sample advance rotation table for one
// canonical bin band: rot[k−lo] = e^(+2πik/N), the factor that re-references
// a window's DFT value when the window slides forward one sample. Split
// re/im (SoA) so the sliding-DFT inner loop vectorizes.
type bandRot struct {
	lo, hi int
	re, im []float64
}

// bandRotTable returns the cached rotation table for [lo, hi), building it
// on first use. Tables are shared by every SlidingBandDFT on this plan (and
// hence live as long as the plan: for a SharedFFTPlan, the process).
func (p *FFTPlan) bandRotTable(lo, hi int) *bandRot {
	key := uint64(lo)<<32 | uint64(uint32(hi))
	if r, ok := p.rots.Load(key); ok {
		return r.(*bandRot)
	}
	r := &bandRot{lo: lo, hi: hi, re: make([]float64, hi-lo), im: make([]float64, hi-lo)}
	for k := lo; k < hi; k++ {
		ang := 2 * math.Pi * float64(k) / float64(p.n)
		r.re[k-lo] = math.Cos(ang)
		r.im[k-lo] = math.Sin(ang)
	}
	actual, _ := p.rots.LoadOrStore(key, r)
	return actual.(*bandRot)
}
