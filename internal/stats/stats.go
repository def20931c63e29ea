package stats

import (
	"errors"
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// Std returns the sample standard deviation of x (0 for fewer than two
// values).
func Std(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var sum float64
	for _, v := range x {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(x)-1))
}

// Q is the Gaussian tail function Q(x) = P(Z > x) for Z ~ N(0,1).
func Q(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// DecisionModel is the §VI-C evaluation model: estimated distance for a
// true distance d is N(d, σ²); the signal is undetectable past
// MaxDetectableM (d_s ≈ 2.5 m); Bluetooth pairing bounds the attack
// surface at BTRangeM (FAR is exactly 0 beyond it).
type DecisionModel struct {
	// SigmaM is the distance-estimation standard deviation σ_d in meters
	// (estimated from the Fig. 1 measurements).
	SigmaM float64
	// MaxDetectableM is d_s: beyond it the reference signal is absent
	// and PIANO rejects outright.
	MaxDetectableM float64
	// BTRangeM is the Bluetooth communication range.
	BTRangeM float64
}

// Validate checks model consistency.
func (m DecisionModel) Validate() error {
	switch {
	case m.SigmaM <= 0:
		return errors.New("stats: sigma must be positive")
	case m.MaxDetectableM <= 0:
		return errors.New("stats: max detectable distance must be positive")
	case m.BTRangeM < m.MaxDetectableM:
		return fmt.Errorf("stats: bluetooth range %g below detectable range %g", m.BTRangeM, m.MaxDetectableM)
	}
	return nil
}

// integrationSteps is the grid resolution for averaging rates over
// distance, matching the paper's "averaging the FRRs at each legitimate
// distance" formulation.
const integrationSteps = 4000

// FRR computes the false rejection rate for threshold tau: the average
// over legitimate distances d ∈ (0, τ] of P(estimate > τ). A legitimate
// user past d_s is also rejected (signal absent), which the model counts
// as rejection for d ∈ (d_s, τ] — with the paper's parameters τ < d_s so
// that branch is empty.
func (m DecisionModel) FRR(tau float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if tau <= 0 {
		return 0, errors.New("stats: tau must be positive")
	}
	var sum float64
	for i := 0; i < integrationSteps; i++ {
		d := (float64(i) + 0.5) / integrationSteps * tau
		if d >= m.MaxDetectableM {
			sum += 1 // absent ⇒ always rejected
			continue
		}
		sum += Q((tau - d) / m.SigmaM)
	}
	return sum / integrationSteps, nil
}

// FAR computes the false acceptance rate for threshold tau: the average
// over illegitimate distances d ∈ (τ, BTRangeM] of P(estimate ≤ τ), with
// probability 0 for d ≥ d_s (signal absent) — and 0 beyond Bluetooth range
// by construction (those distances never reach ACTION).
func (m DecisionModel) FAR(tau float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if tau <= 0 || tau >= m.BTRangeM {
		return 0, fmt.Errorf("stats: tau %g out of (0, bt range)", tau)
	}
	span := m.BTRangeM - tau
	var sum float64
	for i := 0; i < integrationSteps; i++ {
		d := tau + (float64(i)+0.5)/integrationSteps*span
		if d >= m.MaxDetectableM {
			continue // absent ⇒ never falsely accepted
		}
		sum += Q((d - tau) / m.SigmaM)
	}
	return sum / integrationSteps, nil
}

// ReplaySuccessProbability is the §V analysis: guessing one reference
// signal succeeds with probability 1/(2^N − 2) ≈ 1/2^N (the attacker must
// hit the exact frequency subset), and a replay needs both signals, giving
// ≈ 1/2^(N+1).
func ReplaySuccessProbability(numCandidates int) (float64, error) {
	if numCandidates < 2 {
		return 0, errors.New("stats: need at least 2 candidate frequencies")
	}
	return 1 / math.Exp2(float64(numCandidates)+1), nil
}
