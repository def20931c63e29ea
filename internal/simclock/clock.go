package simclock

import "fmt"

// Clock converts between global simulation time (seconds) and a device's
// local sample indices.
type Clock struct {
	// OffsetSec is the global time at which the device's recording
	// (local sample 0) starts.
	OffsetSec float64
	// NominalRate is the sampling rate the device believes it has
	// (e.g. 44100 Hz) and reports to protocol code.
	NominalRate float64
	// SkewPPM is the crystal error: the true rate is
	// NominalRate·(1+SkewPPM·1e-6).
	SkewPPM float64
}

// New validates and builds a Clock.
func New(offsetSec, nominalRate, skewPPM float64) (*Clock, error) {
	if nominalRate <= 0 {
		return nil, fmt.Errorf("simclock: nominal rate %g must be positive", nominalRate)
	}
	return &Clock{OffsetSec: offsetSec, NominalRate: nominalRate, SkewPPM: skewPPM}, nil
}

// TrueRate returns the actual samples-per-second of the device's ADC.
func (c *Clock) TrueRate() float64 {
	return c.NominalRate * (1 + c.SkewPPM*1e-6)
}

// SampleAt returns the (fractional) local sample index corresponding to
// global time t seconds.
func (c *Clock) SampleAt(globalSec float64) float64 {
	return (globalSec - c.OffsetSec) * c.TrueRate()
}
