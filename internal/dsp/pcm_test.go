package dsp

import (
	"math/rand"
	"testing"
)

// randomPCM builds a deterministic full-range int16 test window and its
// exact float64 conversion.
func randomPCM(seed int64, n int) ([]int16, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pcm := make([]int16, n)
	f := make([]float64, n)
	for i := range pcm {
		pcm[i] = int16(rng.Intn(1<<16) - 1<<15)
		f[i] = float64(pcm[i])
	}
	return pcm, f
}

// TestPowerSpectrumBandIntoPCMBitIdentical: the fused int16 pack must
// produce exactly the bits of converting the window to float64 first —
// float64(int16) is exact, so there is no tolerance here.
func TestPowerSpectrumBandIntoPCMBitIdentical(t *testing.T) {
	const n = 4096
	pcm, f := randomPCM(41, n)
	plan, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	scratch := plan.NewScratch()
	want := make([]float64, n)
	got := make([]float64, n)
	for _, band := range [][2]int{{0, n/2 + 1}, {856, 1765}, {0, 1}, {n / 2, n/2 + 1}} {
		lo, hi := band[0], band[1]
		if err := plan.PowerSpectrumBandInto(want, f, scratch, lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := plan.PowerSpectrumBandIntoPCM(got, pcm, scratch, lo, hi); err != nil {
			t.Fatal(err)
		}
		for k := lo; k < hi && k < n/2+1; k++ {
			if got[k] != want[k] {
				t.Fatalf("band [%d,%d): bin %d: pcm %v != float %v", lo, hi, k, got[k], want[k])
			}
			if k > 0 && k < n/2 && got[n-k] != want[n-k] {
				t.Fatalf("band [%d,%d): mirror bin %d: pcm %v != float %v", lo, hi, n-k, got[n-k], want[n-k])
			}
		}
	}
	// The PCM path validates like the float path.
	if err := plan.PowerSpectrumBandIntoPCM(got, pcm[:100], scratch, 0, 10); err == nil {
		t.Fatal("short PCM window accepted")
	}
	if err := plan.PowerSpectrumBandIntoPCM(got, pcm, scratch, 10, 5); err == nil {
		t.Fatal("inverted band accepted")
	}
}

// TestBandSpectrumIntoPCMBitIdentical: same bit-exactness contract for the
// raw band spectrum (the sliding-DFT resynchronization primitive).
func TestBandSpectrumIntoPCMBitIdentical(t *testing.T) {
	const n = 4096
	pcm, f := randomPCM(42, n)
	plan, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	scratch := plan.NewScratch()
	const lo, hi = 856, 1765
	wantRe, wantIm := make([]float64, hi-lo), make([]float64, hi-lo)
	gotRe, gotIm := make([]float64, hi-lo), make([]float64, hi-lo)
	if err := plan.BandSpectrumInto(wantRe, wantIm, f, scratch, lo, hi); err != nil {
		t.Fatal(err)
	}
	if err := plan.BandSpectrumIntoPCM(gotRe, gotIm, pcm, scratch, lo, hi); err != nil {
		t.Fatal(err)
	}
	for k := range wantRe {
		if gotRe[k] != wantRe[k] || gotIm[k] != wantIm[k] {
			t.Fatalf("bin %d: pcm (%v,%v) != float (%v,%v)", lo+k, gotRe[k], gotIm[k], wantRe[k], wantIm[k])
		}
	}
}

// TestSlidingBandDFTPCMBitIdentical: a stream fed raw PCM (ResetPCM + fused
// widening in Advance) must reproduce the float64-fed stream bit for bit at
// every hop.
func TestSlidingBandDFTPCMBitIdentical(t *testing.T) {
	const n, total = 4096, 8192
	pcm, f := randomPCM(43, total)
	plan, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = 856, 1765
	sf, err := NewSlidingBandDFT(plan, lo, hi, 10)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSlidingBandDFT(plan, lo, hi, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Reset(f, 0); err != nil {
		t.Fatal(err)
	}
	if err := sp.ResetPCM(pcm, 0); err != nil {
		t.Fatal(err)
	}
	wantP := make([]float64, n)
	gotP := make([]float64, n)
	for hop := 0; hop < 64; hop++ {
		if hop > 0 {
			if err := sf.Advance(); err != nil {
				t.Fatal(err)
			}
			if err := sp.Advance(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sf.PowersInto(wantP); err != nil {
			t.Fatal(err)
		}
		if err := sp.PowersInto(gotP); err != nil {
			t.Fatal(err)
		}
		for k := lo; k < hi; k++ {
			if gotP[k] != wantP[k] {
				t.Fatalf("hop %d bin %d: pcm %v != float %v", hop, k, gotP[k], wantP[k])
			}
		}
	}
	if sp.pos != sf.pos {
		t.Fatalf("positions diverged: pcm %d, float %d", sp.pos, sf.pos)
	}
	// Release drops both backings; advancing afterwards is refused.
	sp.Release()
	if err := sp.Advance(); err == nil {
		t.Fatal("advance after Release accepted")
	}
	// PCM bounds are enforced like float bounds.
	if err := sp.ResetPCM(pcm, total-n+1); err == nil {
		t.Fatal("out-of-range PCM reset accepted")
	}
}

// TestSlidingBandDFTSetStep: the hop size is mutable without rebuilding
// state — the detector reuses one pooled engine across the coarse and fine
// hop sequences — and a stream advanced at the new step matches a fresh
// engine built with it.
func TestSlidingBandDFTSetStep(t *testing.T) {
	const n, total = 1024, 4096
	_, f := randomPCM(44, total)
	plan, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = 100, 300
	s, err := NewSlidingBandDFT(plan, lo, hi, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetStep(0); err == nil {
		t.Fatal("step 0 accepted")
	}
	if err := s.SetStep(3); err != nil {
		t.Fatal(err)
	}
	if s.step != 3 {
		t.Fatalf("step %d after SetStep(3)", s.step)
	}
	fresh, err := NewSlidingBandDFT(plan, lo, hi, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(f, 0); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Reset(f, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	want := make([]float64, n)
	for hop := 0; hop < 20; hop++ {
		if err := s.Advance(); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PowersInto(got); err != nil {
		t.Fatal(err)
	}
	if err := fresh.PowersInto(want); err != nil {
		t.Fatal(err)
	}
	for k := lo; k < hi; k++ {
		if got[k] != want[k] {
			t.Fatalf("bin %d: SetStep stream %v != fresh stream %v", k, got[k], want[k])
		}
	}
}
