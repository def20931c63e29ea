package core

import (
	"errors"
	"fmt"

	"github.com/acoustic-auth/piano/internal/bluetooth"
	"github.com/acoustic-auth/piano/internal/detect"
	"github.com/acoustic-auth/piano/internal/sigref"
	"github.com/acoustic-auth/piano/internal/world"
)

// DetectorMode selects the Step-IV signal-detection algorithm.
type DetectorMode int

// Detector modes. The zero value means frequency-based (the paper's
// algorithm); cross-correlation exists for the ACTION-CC baseline of
// Fig. 2(b).
const (
	// DetectFrequency is the paper's frequency-based detector
	// (Algorithms 1 and 2).
	DetectFrequency DetectorMode = iota
	// DetectCrossCorrelation replaces Step IV with BeepBeep-style
	// normalized cross-correlation (the ACTION-CC baseline).
	DetectCrossCorrelation
)

// Config assembles every tunable of a PIANO deployment. Zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Signal is the reference-signal design (Step I).
	Signal sigref.Params
	// Detect holds Algorithm 1/2 parameters (Step IV).
	Detect detect.Config
	// Mode selects the Step-IV detector (frequency-based by default).
	Mode DetectorMode
	// World is the simulated scene (environment, duration, channel).
	World world.Config
	// BTLatency models per-message Bluetooth latency.
	BTLatency bluetooth.LatencyModel
	// BTRangeM is the Bluetooth communication range (FAR is exactly 0
	// beyond it).
	BTRangeM float64
	// ThresholdM is the user-selected authentication threshold τ.
	ThresholdM float64

	// LeadSec is the pause between both devices recording and the first
	// play command (lets the recording settle).
	LeadSec float64
	// GapSec separates the two play commands so the reference signals
	// never overlap in the air.
	GapSec float64

	// PlausibleMinM / PlausibleMaxM bound physically possible estimates.
	// Reference signals are undetectable beyond d_s ≈ 2.5 m, so an
	// estimate far outside (0, d_s] can only mean a detection locked onto
	// a displaced window (e.g. a partial interferer overlap blocked the
	// true window); ACTION reports ⊥ in that case, extending the paper's
	// "signal not present ⇒ deny" rule to implausible geometry.
	PlausibleMinM float64
	PlausibleMaxM float64

	// PhoneFFTSec is the modeled per-window Algorithm-2 cost on the
	// reference handset CPU (drives the §VI-D timing/energy results).
	PhoneFFTSec float64
	// SigConstructSec is the modeled Step-I synthesis cost.
	SigConstructSec float64
}

// DefaultConfig returns the paper's prototype configuration with the
// simulator's calibrated physical constants.
func DefaultConfig() Config {
	return Config{
		Signal:          sigref.DefaultParams(),
		Detect:          detect.DefaultConfig(),
		World:           world.DefaultConfig(),
		BTLatency:       bluetooth.DefaultLatency(),
		BTRangeM:        bluetooth.DefaultRangeM,
		ThresholdM:      1.0,
		LeadSec:         0.05,
		GapSec:          0.30,
		PlausibleMinM:   -0.5,
		PlausibleMaxM:   3.0,
		PhoneFFTSec:     0.0025,
		SigConstructSec: 0.005,
	}
}

// Validate checks cross-field consistency.
func (c Config) Validate() error {
	if err := c.Signal.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Detect.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.World.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Signal.SampleRate != c.World.SampleRate {
		return fmt.Errorf("core: signal rate %g != world rate %g", c.Signal.SampleRate, c.World.SampleRate)
	}
	if c.BTRangeM <= 0 {
		return errors.New("core: bluetooth range must be positive")
	}
	if c.ThresholdM <= 0 {
		return errors.New("core: threshold must be positive")
	}
	if c.LeadSec < 0 || c.GapSec <= 0 {
		return errors.New("core: scheduling times must be non-negative (gap positive)")
	}
	if c.GapSec < c.Signal.DurationSec() {
		return fmt.Errorf("core: gap %gs shorter than signal duration %gs (plays would overlap)",
			c.GapSec, c.Signal.DurationSec())
	}
	if c.PhoneFFTSec < 0 || c.SigConstructSec < 0 {
		return errors.New("core: cost-model times must be non-negative")
	}
	if c.PlausibleMaxM <= 0 || c.PlausibleMinM >= 0 {
		return errors.New("core: plausibility bounds must straddle zero")
	}
	return nil
}
