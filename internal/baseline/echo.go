package baseline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/detect"
	"github.com/acoustic-auth/piano/internal/device"
	"github.com/acoustic-auth/piano/internal/sigref"
	"github.com/acoustic-auth/piano/internal/world"
)

// EchoSecure is the hardened Echo protocol: the authenticating device
// ships a randomized reference signal over Bluetooth; the vouching device
// plays it "immediately"; the authenticating device measures the elapsed
// time until the signal arrives and subtracts a pre-calibrated processing
// delay.
type EchoSecure struct {
	cfg          core.Config
	auth, vouch  *device.Device
	rng          *rand.Rand
	calibrated   bool
	calDelaySec  float64
	detectConfig detect.Config
}

// EchoResult is one Echo-Secure measurement.
type EchoResult struct {
	DistanceM float64
	Found     bool
}

// NewEchoSecure builds the protocol instance.
func NewEchoSecure(cfg core.Config, auth, vouch *device.Device, rng *rand.Rand) (*EchoSecure, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if auth == nil || vouch == nil {
		return nil, errors.New("baseline: nil device")
	}
	if rng == nil {
		return nil, errors.New("baseline: nil rng")
	}
	return &EchoSecure{cfg: cfg, auth: auth, vouch: vouch, rng: rng, detectConfig: cfg.Detect}, nil
}

// measureElapsed runs one Echo round and returns the raw elapsed seconds
// between the send command and the signal's arrival at the authenticating
// device, or found=false if the signal never arrived.
func (e *EchoSecure) measureElapsed() (float64, bool, error) {
	sig, err := sigref.New(e.cfg.Signal, e.rng)
	if err != nil {
		return 0, false, err
	}

	// t=0: auth sends the reference signal and starts recording.
	if err := e.auth.ResetClock(0); err != nil {
		return 0, false, err
	}
	btLat := e.cfg.BTLatency.Sample(e.rng)
	// The vouching device plays as soon as its audio stack allows — the
	// processing delay the paper calls "very unpredictable".
	playAt := btLat + e.vouch.ProcDelay().Sample(e.rng)

	w, err := world.New(e.cfg.World, e.rng)
	if err != nil {
		return 0, false, err
	}
	if err := w.AddDevice(e.auth); err != nil {
		return 0, false, err
	}
	if err := w.AddDevice(e.vouch); err != nil {
		return 0, false, err
	}
	if err := w.SchedulePlay(e.vouch, sig.Samples(), playAt); err != nil {
		return 0, false, err
	}
	recs, err := w.Render()
	if err != nil {
		return 0, false, err
	}

	det, err := detect.New(e.detectConfig)
	if err != nil {
		return 0, false, err
	}
	res, err := det.DetectAll(context.TODO(), recs[e.auth].Float(), sig)
	if err != nil {
		return 0, false, err
	}
	if !res[0].Found {
		return 0, false, nil
	}
	return float64(res[0].Location) / e.auth.SampleRate(), true, nil
}

// Calibrate estimates the average processing delay by putting the two
// devices together (distance ≈ 0) and averaging the elapsed time, exactly
// as the paper calibrates Echo. Device positions are restored afterwards.
func (e *EchoSecure) Calibrate(trials int) error {
	if trials < 1 {
		return errors.New("baseline: calibration needs at least one trial")
	}
	origVouch := e.vouch.Position()
	origRoom := e.vouch.Room()
	e.vouch.SetPosition(e.auth.Position())
	e.vouch.SetRoom(e.auth.Room())
	defer func() {
		e.vouch.SetPosition(origVouch)
		e.vouch.SetRoom(origRoom)
	}()

	var sum float64
	var n int
	for i := 0; i < trials; i++ {
		elapsed, found, err := e.measureElapsed()
		if err != nil {
			return fmt.Errorf("baseline: calibrate: %w", err)
		}
		if found {
			sum += elapsed
			n++
		}
	}
	if n == 0 {
		return errors.New("baseline: calibration never detected the signal")
	}
	e.calDelaySec = sum / float64(n)
	e.calibrated = true
	return nil
}

// Measure runs one Echo-Secure distance estimation.
func (e *EchoSecure) Measure() (*EchoResult, error) {
	if !e.calibrated {
		return nil, errors.New("baseline: echo-secure requires Calibrate first")
	}
	elapsed, found, err := e.measureElapsed()
	if err != nil {
		return nil, err
	}
	if !found {
		return &EchoResult{Found: false}, nil
	}
	d := acoustic.SpeedOfSoundMPS * (elapsed - e.calDelaySec)
	return &EchoResult{DistanceM: d, Found: true}, nil
}
