package detect

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/acoustic-auth/piano/internal/sigref"
)

// TestDisableBetaCheckAdmitsAllFrequencyWindow verifies the ablation flag:
// with the β check off, a window containing every candidate frequency is
// scored finite (and would be detected as any reference signal), which is
// exactly the vulnerability the paper's sanity check closes.
func TestDisableBetaCheckAdmitsAllFrequencyWindow(t *testing.T) {
	p := sigref.DefaultParams()
	sig, err := sigref.NewFromIndices(p, []int{2, 9, 17, 25}, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, p.NumCandidates-1)
	for i := range all {
		all[i] = i
	}
	allSig, err := sigref.NewFromIndices(p, all, nil)
	if err != nil {
		t.Fatal(err)
	}
	window := allSig.Samples()

	strict, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pw, err := strict.NormPower(window, sig)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(pw, -1) {
		t.Fatalf("strict detector accepted the all-frequency window: %g", pw)
	}

	lax := DefaultConfig()
	lax.DisableBetaCheck = true
	laxDet, err := New(lax)
	if err != nil {
		t.Fatal(err)
	}
	pw, err = laxDet.NormPower(window, sig)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(pw, -1) {
		t.Fatal("ablated detector still rejected the all-frequency window")
	}
}

// TestThetaZeroMissesOffGridPower: candidate frequencies are not FFT-bin
// centered, so θ=0 reads a single bin and loses most of the scalloped
// power — the reason the paper aggregates over ±θ bins.
func TestThetaZeroMissesOffGridPower(t *testing.T) {
	p := sigref.DefaultParams()
	sig, err := sigref.New(p, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	window := sig.Samples()

	mkDet := func(theta int) *Detector {
		cfg := DefaultConfig()
		cfg.Theta = theta
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	p0, err := mkDet(0).NormPower(window, sig)
	if err != nil {
		t.Fatal(err)
	}
	p5, err := mkDet(5).NormPower(window, sig)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(p5, -1) {
		t.Fatal("θ=5 rejected a clean aligned window")
	}
	// On a clean, perfectly aligned window scalloping loses only part of
	// the power; the strict capture ordering must still hold. (Through
	// the dispersive channel θ=0 fails outright — see the θ ablation.)
	if !math.IsInf(p0, -1) && p0 >= p5 {
		t.Fatalf("θ=0 captured %g ≥ θ=5 %g — aggregation gained nothing", p0, p5)
	}
}

// TestDetectNeverConfusesManyRandomSignals draws many signal pairs and
// verifies a recording containing only signal A is never reported as
// containing signal B (the detector-level analogue of the replay-guess
// analysis).
func TestDetectNeverConfusesManyRandomSignals(t *testing.T) {
	p := sigref.DefaultParams()
	rng := rand.New(rand.NewSource(4))
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 12; trial++ {
		a, err := sigref.New(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sigref.New(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(a.Frequencies(), b.Frequencies()) {
			continue // astronomically unlikely; skip if it happens
		}
		rec := make([]float64, 16384)
		for i, v := range a.Samples() {
			rec[4000+i] += 0.5 * v
		}
		res, err := detectOne(det, rec, b)
		if err != nil {
			t.Fatal(err)
		}
		// b may share a subset of a's frequencies, but the α check on
		// b's non-shared frequencies or the β check on a's extra
		// frequencies must reject every window.
		if res.Found {
			t.Fatalf("trial %d: detected signal B in a recording containing only A", trial)
		}
	}
}
