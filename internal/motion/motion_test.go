package motion

import (
	"math"
	"math/rand"
	"testing"
)

func TestSyntheticRestingIsQuiet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr, err := syntheticResting(2, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 100 {
		t.Fatalf("len %d", tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if m := tr.magnitude(i); math.Abs(m-GravityMS2) > 0.5 {
			t.Fatalf("resting magnitude %g at %d", m, i)
		}
	}
}

func TestPickupDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	det := DefaultDetector()
	tr, err := SyntheticPickup(4, 50, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	at, ok, err := det.PickupAt(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("pickup not detected")
	}
	// The detector reports the start of the detection window, so the
	// verdict can precede the gesture onset by up to WindowSec.
	atSec := float64(at) / 50
	if atSec < 1.5-DefaultDetector().WindowSec-0.05 || atSec > 2.0 {
		t.Fatalf("pickup located at %.2f s, want ≈1.5 s (±window)", atSec)
	}
}

func TestRestingAndWalkingDoNotTrigger(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	det := DefaultDetector()

	rest, err := syntheticResting(5, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := det.PickupAt(rest); err != nil || ok {
		t.Fatalf("resting trace triggered pickup (ok=%v err=%v)", ok, err)
	}

	walk, err := syntheticWalking(5, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := det.PickupAt(walk); err != nil || ok {
		t.Fatalf("walking trace triggered pickup (ok=%v err=%v)", ok, err)
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := syntheticResting(0, 50, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := syntheticResting(1, 50, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := SyntheticPickup(2, 50, 5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("pickup beyond duration accepted")
	}
	bad := Trace{RateHz: 50, X: make([]float64, 3), Y: make([]float64, 2), Z: make([]float64, 3)}
	det := DefaultDetector()
	if _, _, err := det.PickupAt(bad); err == nil {
		t.Error("mismatched axes accepted")
	}
	if _, _, err := det.PickupAt(Trace{RateHz: 0}); err == nil {
		t.Error("zero rate accepted")
	}
	short := Detector{JerkThresholdMS3: 100, MinFraction: 0.5, WindowSec: 0.001}
	good := Trace{RateHz: 50, X: make([]float64, 10), Y: make([]float64, 10), Z: make([]float64, 10)}
	if _, _, err := short.PickupAt(good); err == nil {
		t.Error("degenerate window accepted")
	}
}

func TestShortTraceNoPickup(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr, err := syntheticResting(0.1, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := DefaultDetector().PickupAt(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("pickup in a 5-sample trace")
	}
}

func TestPreAuthLatency(t *testing.T) {
	if got := PreAuthLatency(2.4, 1.0); math.Abs(got-1.4) > 1e-12 {
		t.Fatalf("latency %g", got)
	}
	if got := PreAuthLatency(2.4, 3.0); got != 0 {
		t.Fatalf("latency floor %g", got)
	}
}

// magnitude returns |a| at sample i.
func (t Trace) magnitude(i int) float64 {
	return math.Sqrt(t.X[i]*t.X[i] + t.Y[i]*t.Y[i] + t.Z[i]*t.Z[i])
}

// syntheticResting generates a device lying on a table: gravity on Z plus
// sensor noise.
func syntheticResting(durSec, rateHz float64, rng *rand.Rand) (Trace, error) {
	return synth(durSec, rateHz, rng, func(tr *Trace, i int) {
		tr.X[i] = 0.03 * rng.NormFloat64()
		tr.Y[i] = 0.03 * rng.NormFloat64()
		tr.Z[i] = GravityMS2 + 0.05*rng.NormFloat64()
	})
}

// syntheticWalking generates the periodic sway of a device carried in a
// pocket — motion that must NOT trigger pickup detection.
func syntheticWalking(durSec, rateHz float64, rng *rand.Rand) (Trace, error) {
	const stepHz = 1.8
	return synth(durSec, rateHz, rng, func(tr *Trace, i int) {
		ph := 2 * math.Pi * stepHz * float64(i) / rateHz
		tr.X[i] = 0.8*math.Sin(ph) + 0.1*rng.NormFloat64()
		tr.Y[i] = 0.5*math.Sin(ph/2+0.7) + 0.1*rng.NormFloat64()
		tr.Z[i] = GravityMS2 + 1.2*math.Sin(ph+0.3) + 0.15*rng.NormFloat64()
	})
}
