package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// streamTestRecording builds a deterministic wideband recording with a few
// strong in-band tones, shaped like detection input.
func streamTestRecording(seed int64, total, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	rec := make([]float64, total)
	for i := range rec {
		rec[i] = 40 * rng.NormFloat64()
	}
	for _, bin := range []int{850, 1200, 1700} {
		f := float64(bin) / float64(n)
		ph := rng.Float64() * 2 * math.Pi
		for i := range rec {
			rec[i] += 900 * math.Cos(2*math.Pi*f*float64(i)+ph)
		}
	}
	return rec
}

// TestPowerSpectrumBandIntoExactParity pins the band-restricted unpack to
// the full unpack bit for bit on every bin of the band (and its conjugate
// mirror): the band loop must run exactly the same arithmetic.
func TestPowerSpectrumBandIntoExactParity(t *testing.T) {
	const n = 4096
	plan, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	rec := streamTestRecording(31, n, n)
	scratch := plan.NewScratch()
	full := make([]float64, n)
	if err := plan.PowerSpectrumInto(full, rec, scratch); err != nil {
		t.Fatal(err)
	}

	for _, band := range [][2]int{{841, 1780}, {0, 1}, {0, n/2 + 1}, {n / 2, n/2 + 1}, {1, 7}, {2040, 2049}} {
		lo, hi := band[0], band[1]
		got := make([]float64, n)
		for i := range got {
			got[i] = math.NaN() // poison: untouched bins must stay untouched
		}
		if err := plan.PowerSpectrumBandInto(got, rec, scratch, lo, hi); err != nil {
			t.Fatalf("band [%d, %d): %v", lo, hi, err)
		}
		written := make(map[int]bool)
		for k := lo; k < hi; k++ {
			written[k] = true
			if k > 0 && k < n/2 {
				written[n-k] = true
			}
		}
		for i := range got {
			if written[i] {
				if got[i] != full[i] {
					t.Fatalf("band [%d, %d) bin %d: %g != full %g (must be bit-identical)", lo, hi, i, got[i], full[i])
				}
			} else if !math.IsNaN(got[i]) {
				t.Fatalf("band [%d, %d) bin %d written outside the band", lo, hi, i)
			}
		}
	}

	// Degenerate bands are refused.
	dst := make([]float64, n)
	for _, band := range [][2]int{{-1, 5}, {5, 5}, {9, 3}, {0, n/2 + 2}} {
		if err := plan.PowerSpectrumBandInto(dst, rec, scratch, band[0], band[1]); err == nil {
			t.Fatalf("band [%d, %d) accepted", band[0], band[1])
		}
	}
}

// TestBandSpectrumIntoMatchesPower: the SoA complex band spectrum must square
// to exactly the band-restricted powers (it is the same unpack arithmetic).
func TestBandSpectrumIntoMatchesPower(t *testing.T) {
	const n = 4096
	const lo, hi = 0, n/2 + 1 // full range, including DC and Nyquist specials
	plan, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	rec := streamTestRecording(32, n, n)
	scratch := plan.NewScratch()
	pow := make([]float64, n)
	if err := plan.PowerSpectrumInto(pow, rec, scratch); err != nil {
		t.Fatal(err)
	}
	re := make([]float64, hi-lo)
	im := make([]float64, hi-lo)
	if err := plan.BandSpectrumInto(re, im, rec, scratch, lo, hi); err != nil {
		t.Fatal(err)
	}
	invN := 2 / float64(n)
	norm := invN * invN
	for k := lo; k < hi; k++ {
		got := (re[k-lo]*re[k-lo] + im[k-lo]*im[k-lo]) * norm
		if got != pow[k] {
			t.Fatalf("bin %d: |X|²·norm = %g != PowerSpectrumInto %g", k, got, pow[k])
		}
	}
}

// TestSlidingBandDFTParity drives the sliding engine across several resync
// boundaries (Reset every StreamResyncHops hops, incremental advances in
// between) and pins every window's band powers against an independent
// band-restricted FFT to within 1e-9 relative — the engine's drift budget.
func TestSlidingBandDFTParity(t *testing.T) {
	const n = 4096
	const lo, hi = 841, 1780 // the paper's candidate band
	plan, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{1, 7, 16, 50} {
		hops := 3*StreamResyncHops + 5 // cross several resync boundaries
		rec := streamTestRecording(33, n+hops*step+1, n)
		sd, err := NewSlidingBandDFT(plan, lo, hi, step)
		if err != nil {
			t.Fatal(err)
		}
		scratch := plan.NewScratch()
		want := make([]float64, n)
		got := make([]float64, n)
		var ref float64 // scale for the relative tolerance
		for h := 0; h <= hops; h++ {
			pos := h * step
			if h%StreamResyncHops == 0 {
				if err := sd.Reset(rec, pos); err != nil {
					t.Fatal(err)
				}
			} else if err := sd.Advance(); err != nil {
				t.Fatal(err)
			}
			if sd.pos != pos {
				t.Fatalf("step %d hop %d: pos %d != %d", step, h, sd.pos, pos)
			}
			if err := sd.PowersInto(got); err != nil {
				t.Fatal(err)
			}
			if err := plan.PowerSpectrumBandInto(want, rec[pos:pos+n], scratch, lo, hi); err != nil {
				t.Fatal(err)
			}
			for k := lo; k < hi; k++ {
				if want[k] > ref {
					ref = want[k]
				}
			}
			for k := lo; k < hi; k++ {
				if diff := math.Abs(got[k] - want[k]); diff > 1e-9*ref {
					t.Fatalf("step %d hop %d bin %d: sliding %g vs fft %g (drift %g > 1e-9·%g)",
						step, h, k, got[k], want[k], diff, ref)
				}
				if got[n-k] != got[k] {
					t.Fatalf("step %d hop %d bin %d: mirror %g != %g", step, h, k, got[n-k], got[k])
				}
			}
			// Right after a resync the powers are bit-identical, not just
			// within tolerance: Reset runs the exact unpack.
			if h%StreamResyncHops == 0 {
				for k := lo; k < hi; k++ {
					if got[k] != want[k] {
						t.Fatalf("step %d resync hop %d bin %d: %g != %g (must be exact)", step, h, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// TestSlidingBandDFTMisuse: bounds and ordering errors are reported, not
// silently mangled.
func TestSlidingBandDFTMisuse(t *testing.T) {
	const n = 1024
	plan, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSlidingBandDFT(nil, 0, 1, 1); err == nil {
		t.Fatal("nil plan accepted")
	}
	for _, bad := range [][3]int{{-1, 5, 1}, {5, 5, 1}, {0, n/2 + 2, 1}, {0, 5, 0}} {
		if _, err := NewSlidingBandDFT(plan, bad[0], bad[1], bad[2]); err == nil {
			t.Fatalf("bad geometry %v accepted", bad)
		}
	}
	sd, err := NewSlidingBandDFT(plan, 10, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Advance(); err == nil {
		t.Fatal("Advance before Reset accepted")
	}
	rec := streamTestRecording(34, n+4, n)
	if err := sd.Reset(rec, 8); err == nil {
		t.Fatal("Reset past recording end accepted")
	}
	if err := sd.Reset(rec, 0); err != nil {
		t.Fatal(err)
	}
	if err := sd.Advance(); err == nil {
		t.Fatal("Advance past recording end accepted")
	}
	short := make([]float64, 16)
	if err := sd.PowersInto(short); err == nil {
		t.Fatal("short dst accepted")
	}
}

// TestStreamingWinsShape: the break-even must be monotone (streaming can
// only lose ground as bins·step grows) and land on the right side for the
// workloads the detector actually runs.
func TestStreamingWinsShape(t *testing.T) {
	const n, bins = 4096, 939
	if StreamingWins(n, bins, 1000) {
		t.Fatal("paper's coarse step 1000 must use independent FFTs")
	}
	if !StreamingWins(n, bins, 1) {
		t.Fatal("hop of 1 sample must stream")
	}
	last := true
	for step := 1; step <= 2048; step *= 2 {
		w := StreamingWins(n, bins, step)
		if w && !last {
			t.Fatalf("break-even not monotone at step %d", step)
		}
		last = w
	}
	if StreamingWins(0, bins, 1) || StreamingWins(n, 0, 1) || StreamingWins(n, bins, 0) {
		t.Fatal("degenerate geometry must not stream")
	}
}

func BenchmarkPowerSpectrumBandInto(b *testing.B) {
	const n = 4096
	const lo, hi = 841, 1780 // the paper's candidate band (~45% of bins)
	plan, err := NewFFTPlan(n)
	if err != nil {
		b.Fatal(err)
	}
	rec := streamTestRecording(41, n, n)
	scratch := plan.NewScratch()
	dst := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.PowerSpectrumBandInto(dst, rec, scratch, lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlidingBandDFTAdvance measures the per-hop incremental update at
// a few hop sizes around the streaming break-even (cost ∝ bins·step).
func BenchmarkSlidingBandDFTAdvance(b *testing.B) {
	const n = 4096
	const lo, hi = 841, 1780
	plan, err := NewFFTPlan(n)
	if err != nil {
		b.Fatal(err)
	}
	for _, step := range []int{1, 10, 16, 64} {
		b.Run(fmt.Sprintf("step-%d", step), func(b *testing.B) {
			rec := streamTestRecording(42, 4*n, n)
			sd, err := NewSlidingBandDFT(plan, lo, hi, step)
			if err != nil {
				b.Fatal(err)
			}
			if err := sd.Reset(rec, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sd.pos+step+n > len(rec) {
					b.StopTimer()
					if err := sd.Reset(rec, 0); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := sd.Advance(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
