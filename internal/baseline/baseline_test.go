package baseline

import (
	"math"
	"math/rand"
	"testing"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/device"
)

func pair(t testing.TB, distM float64) (*device.Device, *device.Device) {
	t.Helper()
	auth, err := device.New(device.Config{
		Name: "auth", Position: [2]float64{0, 0}, SampleRate: 44100,
		ProcDelay: device.DefaultProcessingDelay(),
	})
	if err != nil {
		t.Fatal(err)
	}
	vouch, err := device.New(device.Config{
		Name: "vouch", Position: [2]float64{distM, 0}, SampleRate: 44100,
		ProcDelay: device.DefaultProcessingDelay(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return auth, vouch
}

// TestACTIONCCIsWorseThanACTION reproduces the Fig. 2(b) ordering: under
// the channel's frequency smoothing, cross-correlation detection produces
// errors at least an order of magnitude larger than ACTION's.
func TestACTIONCCIsWorseThanACTION(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.World.Environment = acoustic.EnvOffice

	const trials = 4
	var actionErr, ccErr float64
	var actionN, ccN int

	rng := rand.New(rand.NewSource(1))
	auth, vouch := pair(t, 1.0)
	a, err := core.NewAuthenticator(cfg, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trials; i++ {
		sr, err := a.Measure()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Found {
			actionErr += math.Abs(sr.DistanceM - 1.0)
			actionN++
		}
	}

	// ACTION-CC has no ⊥ detection and meter-scale errors blow through
	// the plausibility gate, so measure it without the gate to observe
	// the raw detector error, as Fig. 2(b) does.
	ccCfg := cfg
	ccCfg.Mode = core.DetectCrossCorrelation
	ccCfg.PlausibleMinM = -1000
	ccCfg.PlausibleMaxM = 1000
	auth2, vouch2 := pair(t, 1.0)
	cc, err := core.NewAuthenticator(ccCfg, auth2, vouch2, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trials; i++ {
		sr, err := cc.Measure()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Found {
			ccErr += math.Abs(sr.DistanceM - 1.0)
			ccN++
		}
	}

	if actionN == 0 || ccN == 0 {
		t.Fatalf("no trials: action=%d cc=%d", actionN, ccN)
	}
	actionErr /= float64(actionN)
	ccErr /= float64(ccN)
	if ccErr < 5*actionErr {
		t.Fatalf("ACTION-CC error %.1f cm not ≫ ACTION %.1f cm", ccErr*100, actionErr*100)
	}
}

func TestEchoSecureRequiresCalibration(t *testing.T) {
	cfg := core.DefaultConfig()
	auth, vouch := pair(t, 1.0)
	rng := rand.New(rand.NewSource(3))
	e, err := NewEchoSecure(cfg, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Measure(); err == nil {
		t.Fatal("uncalibrated measure accepted")
	}
	if err := e.Calibrate(0); err == nil {
		t.Fatal("zero calibration trials accepted")
	}
}

func TestEchoSecureValidation(t *testing.T) {
	cfg := core.DefaultConfig()
	auth, vouch := pair(t, 1.0)
	if _, err := NewEchoSecure(cfg, nil, vouch, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("nil device accepted")
	}
	if _, err := NewEchoSecure(cfg, auth, vouch, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	bad := cfg
	bad.ThresholdM = -1
	if _, err := NewEchoSecure(bad, auth, vouch, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("bad config accepted")
	}
}

// TestEchoSecureMeterScaleErrors: the calibrated position restores, the
// calibration produces a plausible delay, and the one-way estimate carries
// meter-scale error (the processing-delay jitter dominates).
func TestEchoSecureMeterScaleErrors(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.World.Environment = acoustic.EnvOffice
	auth, vouch := pair(t, 1.0)
	rng := rand.New(rand.NewSource(4))
	e, err := NewEchoSecure(cfg, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Calibrate(4); err != nil {
		t.Fatal(err)
	}
	// Position restored after calibration.
	if vouch.Position() != [2]float64{1, 0} {
		t.Fatalf("vouch position %v after calibrate", vouch.Position())
	}
	// Calibrated delay ≈ BT latency + processing delay ∈ [0.05, 0.3].
	if d := e.calDelaySec; d < 0.03 || d > 0.4 {
		t.Fatalf("calibrated delay %.3f s implausible", d)
	}

	var errSum float64
	n := 0
	for i := 0; i < 5; i++ {
		r, err := e.Measure()
		if err != nil {
			t.Fatal(err)
		}
		if r.Found {
			errSum += math.Abs(r.DistanceM - 1.0)
			n++
		}
	}
	if n == 0 {
		t.Fatal("echo never detected the signal")
	}
	if mean := errSum / float64(n); mean < 1.0 {
		t.Fatalf("echo mean error %.2f m suspiciously small — processing delay not biting", mean)
	}
}
