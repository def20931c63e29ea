package motion

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// GravityMS2 is standard gravity, the resting accelerometer magnitude.
const GravityMS2 = 9.81

// Trace is a 3-axis accelerometer recording in m/s².
type Trace struct {
	RateHz  float64
	X, Y, Z []float64
}

// Len returns the sample count.
func (t Trace) Len() int { return len(t.X) }

// Validate checks structural consistency.
func (t Trace) Validate() error {
	if t.RateHz <= 0 {
		return errors.New("motion: rate must be positive")
	}
	if len(t.X) != len(t.Y) || len(t.X) != len(t.Z) {
		return fmt.Errorf("motion: axis lengths differ (%d/%d/%d)", len(t.X), len(t.Y), len(t.Z))
	}
	return nil
}

// SyntheticPickup generates resting followed by a grab: a sharp jerk and an
// orientation change starting at pickupAtSec.
func SyntheticPickup(durSec, rateHz, pickupAtSec float64, rng *rand.Rand) (Trace, error) {
	if pickupAtSec < 0 || pickupAtSec >= durSec {
		return Trace{}, fmt.Errorf("motion: pickup time %g outside (0, %g)", pickupAtSec, durSec)
	}
	start := int(pickupAtSec * rateHz)
	return synth(durSec, rateHz, rng, func(tr *Trace, i int) {
		if i < start {
			tr.X[i] = 0.03 * rng.NormFloat64()
			tr.Y[i] = 0.03 * rng.NormFloat64()
			tr.Z[i] = GravityMS2 + 0.05*rng.NormFloat64()
			return
		}
		// Grab: ~0.6 s of high-jerk motion settling into a held pose
		// tilted away from gravity-on-Z.
		dt := float64(i-start) / rateHz
		envelope := math.Exp(-dt/0.4) * 8
		tr.X[i] = envelope*math.Sin(2*math.Pi*6*dt) + 2.5 + 0.3*rng.NormFloat64()
		tr.Y[i] = envelope*math.Cos(2*math.Pi*5*dt) + 1.5 + 0.3*rng.NormFloat64()
		tr.Z[i] = GravityMS2*0.7 + envelope*math.Sin(2*math.Pi*4*dt+1) + 0.3*rng.NormFloat64()
	})
}

func synth(durSec, rateHz float64, rng *rand.Rand, fill func(*Trace, int)) (Trace, error) {
	if durSec <= 0 || rateHz <= 0 {
		return Trace{}, errors.New("motion: duration and rate must be positive")
	}
	if rng == nil {
		return Trace{}, errors.New("motion: nil rng")
	}
	n := int(durSec * rateHz)
	tr := Trace{RateHz: rateHz, X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n)}
	for i := 0; i < n; i++ {
		fill(&tr, i)
	}
	return tr, nil
}

// Detector recognizes pickup gestures from jerk (derivative of
// acceleration magnitude) sustained over a short window.
type Detector struct {
	// JerkThresholdMS3 is the per-sample jerk magnitude that counts as
	// "energetic" motion. Walking sway stays well below it.
	JerkThresholdMS3 float64
	// MinFraction is the fraction of window samples that must be
	// energetic for a pickup verdict.
	MinFraction float64
	// WindowSec is the detection window length.
	WindowSec float64
}

// DefaultDetector returns thresholds calibrated against the synthetic
// traces (and the walking rejection test).
func DefaultDetector() Detector {
	return Detector{JerkThresholdMS3: 150, MinFraction: 0.35, WindowSec: 0.3}
}

// PickupAt scans the trace and returns the sample index where a pickup
// gesture begins, or ok=false when none is present.
func (d Detector) PickupAt(tr Trace) (int, bool, error) {
	if err := tr.Validate(); err != nil {
		return 0, false, err
	}
	win := int(d.WindowSec * tr.RateHz)
	if win < 2 {
		return 0, false, errors.New("motion: window too short for rate")
	}
	if tr.Len() < win+1 {
		return 0, false, nil
	}
	// Jerk per sample: |Δa|·rate.
	jerk := make([]float64, tr.Len()-1)
	for i := range jerk {
		dx := tr.X[i+1] - tr.X[i]
		dy := tr.Y[i+1] - tr.Y[i]
		dz := tr.Z[i+1] - tr.Z[i]
		jerk[i] = math.Sqrt(dx*dx+dy*dy+dz*dz) * tr.RateHz
	}
	need := int(d.MinFraction * float64(win))
	count := 0
	for i, j := range jerk {
		if j > d.JerkThresholdMS3 {
			count++
		}
		if i >= win {
			if jerk[i-win] > d.JerkThresholdMS3 {
				count--
			}
		}
		if count >= need {
			start := i - win + 1
			if start < 0 {
				start = 0
			}
			return start, true, nil
		}
	}
	return 0, false, nil
}

// PreAuthLatency computes the §VI-D headline: with authentication started
// at the pickup instant, the user-perceived latency is the authentication
// time minus the natural grab-to-command gesture time, floored at zero.
func PreAuthLatency(authTimeSec, gestureSec float64) float64 {
	l := authTimeSec - gestureSec
	if l < 0 {
		return 0
	}
	return l
}
