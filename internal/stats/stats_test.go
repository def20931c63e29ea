package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty-input conventions")
	}
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); got != 5 {
		t.Fatalf("mean %g", got)
	}
	if got := Std(x); math.Abs(got-2.138) > 0.001 {
		t.Fatalf("std %g", got)
	}
	if Std([]float64{5}) != 0 {
		t.Fatal("single-element std")
	}
}

func TestQFunction(t *testing.T) {
	if got := Q(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Q(0) = %g", got)
	}
	if got := Q(1.96); math.Abs(got-0.025) > 0.001 {
		t.Fatalf("Q(1.96) = %g", got)
	}
	if got := Q(-1.96); math.Abs(got-0.975) > 0.001 {
		t.Fatalf("Q(-1.96) = %g", got)
	}
	// Monotone decreasing property.
	f := func(a, b float64) bool {
		a, b = math.Mod(a, 5), math.Mod(b, 5)
		if a > b {
			a, b = b, a
		}
		return Q(a) >= Q(b)-1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func paperModel(sigmaM float64) DecisionModel {
	return DecisionModel{SigmaM: sigmaM, MaxDetectableM: 2.5, BTRangeM: 10}
}

func TestModelValidate(t *testing.T) {
	if err := paperModel(0.07).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (DecisionModel{SigmaM: 0, MaxDetectableM: 2.5, BTRangeM: 10}).Validate(); err == nil {
		t.Error("zero sigma accepted")
	}
	if err := (DecisionModel{SigmaM: 0.1, MaxDetectableM: 0, BTRangeM: 10}).Validate(); err == nil {
		t.Error("zero ds accepted")
	}
	if err := (DecisionModel{SigmaM: 0.1, MaxDetectableM: 2.5, BTRangeM: 1}).Validate(); err == nil {
		t.Error("bt < ds accepted")
	}
}

// TestFRRMatchesPaperOffice checks that σ ≈ 7 cm reproduces the paper's
// office FRR row (5.6%, 2.8%, 1.9%, 1.4%).
func TestFRRMatchesPaperOffice(t *testing.T) {
	m := paperModel(0.070)
	want := map[float64]float64{0.5: 0.056, 1.0: 0.028, 1.5: 0.019, 2.0: 0.014}
	for tau, w := range want {
		got, err := m.FRR(tau)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-w) > 0.004 {
			t.Errorf("FRR(τ=%g) = %.4f, paper %.3f", tau, got, w)
		}
	}
}

// TestFARMatchesPaperOffice checks σ ≈ 7 cm against Table II's office row
// (0.3%, 0.3%, 0.3%, 0.4%).
func TestFARMatchesPaperOffice(t *testing.T) {
	m := paperModel(0.070)
	want := map[float64]float64{0.5: 0.003, 1.0: 0.003, 1.5: 0.003, 2.0: 0.004}
	for tau, w := range want {
		got, err := m.FAR(tau)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-w) > 0.0015 {
			t.Errorf("FAR(τ=%g) = %.4f, paper %.3f", tau, got, w)
		}
	}
}

// TestFRRHalvesWithDoubledThreshold reproduces the paper's observation
// that FRRs decrease by half when τ goes from 0.5 m to 1.0 m.
func TestFRRHalvesWithDoubledThreshold(t *testing.T) {
	for _, sigma := range []float64{0.07, 0.12, 0.16} {
		m := paperModel(sigma)
		f05, err := m.FRR(0.5)
		if err != nil {
			t.Fatal(err)
		}
		f10, err := m.FRR(1.0)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := f05 / f10; math.Abs(ratio-2) > 0.1 {
			t.Errorf("σ=%g: FRR ratio %g, want ≈2", sigma, ratio)
		}
	}
}

func TestFARSlightlyIncreasesWithThreshold(t *testing.T) {
	m := paperModel(0.07)
	f05, err := m.FAR(0.5)
	if err != nil {
		t.Fatal(err)
	}
	f20, err := m.FAR(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if f20 <= f05 {
		t.Errorf("FAR(2.0)=%g should exceed FAR(0.5)=%g", f20, f05)
	}
	if f20 > 2*f05 {
		t.Errorf("FAR increase too steep: %g vs %g", f20, f05)
	}
}

func TestRateArgumentValidation(t *testing.T) {
	m := paperModel(0.07)
	if _, err := m.FRR(0); err == nil {
		t.Error("FRR tau=0 accepted")
	}
	if _, err := m.FAR(0); err == nil {
		t.Error("FAR tau=0 accepted")
	}
	if _, err := m.FAR(10); err == nil {
		t.Error("FAR tau=btrange accepted")
	}
	bad := DecisionModel{}
	if _, err := bad.FRR(1); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := bad.FAR(1); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestReplaySuccessProbability(t *testing.T) {
	p, err := ReplaySuccessProbability(30)
	if err != nil {
		t.Fatal(err)
	}
	// 1/2^31 ≈ 4.66e-10 — "negligible" per the paper.
	if math.Abs(p-1/math.Pow(2, 31)) > 1e-18 {
		t.Fatalf("p = %g", p)
	}
	if _, err := ReplaySuccessProbability(1); err == nil {
		t.Error("N=1 accepted")
	}
	// More candidates ⇒ strictly harder to guess.
	p10, err := ReplaySuccessProbability(10)
	if err != nil {
		t.Fatal(err)
	}
	if p10 <= p {
		t.Error("probability should decrease with N")
	}
}
