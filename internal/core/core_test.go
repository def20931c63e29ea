package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/device"
	"github.com/acoustic-auth/piano/internal/energy"
)

// newPair builds an authenticating device at the origin and a vouching
// device at the given distance, with distinct clock skews.
func newPair(t testing.TB, distM float64, sameRoom bool) (*device.Device, *device.Device) {
	t.Helper()
	authRoom, vouchRoom := 0, 0
	if !sameRoom {
		vouchRoom = 1
	}
	auth, err := device.New(device.Config{
		Name:         "auth",
		Position:     [2]float64{0, 0},
		Room:         authRoom,
		SampleRate:   44100,
		ClockSkewPPM: 18,
		ProcDelay:    device.DefaultProcessingDelay(),
	})
	if err != nil {
		t.Fatal(err)
	}
	vouch, err := device.New(device.Config{
		Name:         "vouch",
		Position:     [2]float64{distM, 0},
		Room:         vouchRoom,
		SampleRate:   44100,
		ClockSkewPPM: -24,
		ProcDelay:    device.DefaultProcessingDelay(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return auth, vouch
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad signal", func(c *Config) { c.Signal.Length = 1000 }},
		{"bad detect", func(c *Config) { c.Detect.Alpha = 0 }},
		{"bad world", func(c *Config) { c.World.DurationSec = 0 }},
		{"rate mismatch", func(c *Config) { c.World.SampleRate = 48000 }},
		{"zero bt range", func(c *Config) { c.BTRangeM = 0 }},
		{"zero threshold", func(c *Config) { c.ThresholdM = 0 }},
		{"negative lead", func(c *Config) { c.LeadSec = -1 }},
		{"gap shorter than signal", func(c *Config) { c.GapSec = 0.05 }},
		{"negative fft cost", func(c *Config) { c.PhoneFFTSec = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s accepted", c.name)
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewAuthenticatorValidation(t *testing.T) {
	auth, vouch := newPair(t, 1, true)
	rng := rand.New(rand.NewSource(1))
	if _, err := NewAuthenticator(DefaultConfig(), nil, vouch, rng); err == nil {
		t.Error("nil auth accepted")
	}
	if _, err := NewAuthenticator(DefaultConfig(), auth, vouch, nil); err == nil {
		t.Error("nil rng accepted")
	}
	bad := DefaultConfig()
	bad.ThresholdM = -1
	if _, err := NewAuthenticator(bad, auth, vouch, rng); err == nil {
		t.Error("bad config accepted")
	}
}

// TestACTIONAccuracyAtOneMeter is the core accuracy gate: distance
// estimation at 1 m in a quiet room must land within a few centimeters.
func TestACTIONAccuracyAtOneMeter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.World.Environment = acoustic.EnvQuiet
	auth, vouch := newPair(t, 1.0, true)
	rng := rand.New(rand.NewSource(2))
	a, err := NewAuthenticator(cfg, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sr, err := a.Measure()
		if err != nil {
			t.Fatal(err)
		}
		if !sr.Found {
			t.Fatalf("trial %d: signal absent (%s)", i, sr.AbsentDetail)
		}
		if e := math.Abs(sr.DistanceM - 1.0); e > 0.13 {
			t.Fatalf("trial %d: distance %.3f m (error %.1f cm)", i, sr.DistanceM, e*100)
		}
	}
}

// TestACTIONClockOffsetInvariance verifies Eq. 3's core property: arbitrary
// per-device clock origins must not move the estimate. ACTION already
// derives offsets from BT latencies; here we additionally confirm accuracy
// survives extreme skew settings.
func TestACTIONClockOffsetInvariance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.World.Environment = acoustic.EnvQuiet
	auth, err := device.New(device.Config{
		Name: "auth", Position: [2]float64{0, 0}, SampleRate: 44100,
		ClockSkewPPM: 120, ProcDelay: device.DefaultProcessingDelay(),
	})
	if err != nil {
		t.Fatal(err)
	}
	vouch, err := device.New(device.Config{
		Name: "vouch", Position: [2]float64{1.5, 0}, SampleRate: 44100,
		ClockSkewPPM: -150, ProcDelay: device.ProcessingDelay{MeanSec: 0.35, JitterSec: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.World.DurationSec = 1.6 // cover the slow vouch processing delay
	rng := rand.New(rand.NewSource(3))
	a, err := NewAuthenticator(cfg, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := a.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Found {
		t.Fatalf("absent: %s", sr.AbsentDetail)
	}
	if e := math.Abs(sr.DistanceM - 1.5); e > 0.13 {
		t.Fatalf("distance %.3f m (error %.1f cm) despite Eq. 3", sr.DistanceM, e*100)
	}
}

func TestAuthenticateGrantAndDeny(t *testing.T) {
	cfg := DefaultConfig()
	cfg.World.Environment = acoustic.EnvOffice
	cfg.ThresholdM = 1.0
	auth, vouch := newPair(t, 0.5, true)
	rng := rand.New(rand.NewSource(4))
	a, err := NewAuthenticator(cfg, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}

	res, err := a.Authenticate()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted || res.Reason != ReasonGranted {
		t.Fatalf("0.5 m ≤ τ=1 m should grant; got %v (%s)", res.Granted, res.Reason)
	}

	// The user walks to 2 m: still detectable, beyond τ.
	vouch.SetPosition([2]float64{2.0, 0})
	res, err = a.Authenticate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatalf("2 m > τ=1 m granted (distance %.2f)", res.DistanceM)
	}
	if res.Reason != ReasonDistanceExceedsThreshold && res.Reason != ReasonSignalAbsent {
		t.Fatalf("unexpected reason %s", res.Reason)
	}
}

func TestAuthenticateDeniesThroughWall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.World.Environment = acoustic.EnvOffice
	auth, vouch := newPair(t, 1.0, false) // adjacent rooms
	rng := rand.New(rand.NewSource(5))
	a, err := NewAuthenticator(cfg, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Authenticate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatal("granted through a wall")
	}
	if res.Reason != ReasonSignalAbsent {
		t.Fatalf("reason %s, want signal absent", res.Reason)
	}
}

func TestAuthenticateDeniesFarApart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.World.Environment = acoustic.EnvOffice
	auth, vouch := newPair(t, 4.0, true) // beyond d_s ≈ 2.5 m
	rng := rand.New(rand.NewSource(6))
	a, err := NewAuthenticator(cfg, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Authenticate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatalf("granted at 4 m (distance %.2f)", res.DistanceM)
	}
}

func TestAuthenticateOutOfBluetoothRange(t *testing.T) {
	cfg := DefaultConfig()
	auth, vouch := newPair(t, 1.0, true)
	rng := rand.New(rand.NewSource(7))
	a, err := NewAuthenticator(cfg, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}
	vouch.SetPosition([2]float64{12, 0}) // beyond the 10 m BT range
	res, err := a.Authenticate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted || res.Reason != ReasonBluetoothOutOfRange {
		t.Fatalf("got %v (%s)", res.Granted, res.Reason)
	}
	if res.Session != nil {
		t.Fatal("ACTION should not run when BT is out of range")
	}
}

func TestSetThreshold(t *testing.T) {
	auth, vouch := newPair(t, 1.0, true)
	a, err := NewAuthenticator(DefaultConfig(), auth, vouch, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetThreshold(0.5); err != nil {
		t.Fatal(err)
	}
	if a.Config().ThresholdM != 0.5 {
		t.Fatal("threshold not applied")
	}
	if err := a.SetThreshold(0); err == nil {
		t.Fatal("zero threshold accepted")
	}
	if a.auth != auth || a.vouch != vouch {
		t.Fatal("device accessors")
	}
}

func TestEnergyAndTimingAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.World.Environment = acoustic.EnvOffice
	auth, vouch := newPair(t, 1.0, true)
	rng := rand.New(rand.NewSource(9))
	a, err := NewAuthenticator(cfg, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := energy.NewLedger(energy.DefaultPowerModel())
	if err != nil {
		t.Fatal(err)
	}
	battery, err := energy.NewBattery(energy.GalaxyS4CapacityJoules)
	if err != nil {
		t.Fatal(err)
	}
	a.TrackEnergy(ledger, battery)

	sr, err := a.Measure()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "authentication can be finished within 3 seconds".
	if sr.AuthTimeSec <= 0.5 || sr.AuthTimeSec > 3.5 {
		t.Fatalf("modeled auth time %.2f s outside the prototype band", sr.AuthTimeSec)
	}
	if sr.WindowsScanned <= 0 || sr.DetectSeconds <= 0 {
		t.Fatal("cost accounting missing")
	}
	if ledger.TotalJoules() <= 0 {
		t.Fatal("ledger not charged")
	}
	if math.Abs(battery.UsedJoules()-ledger.TotalJoules()) > 1e-9 {
		t.Fatalf("battery %.3f J vs ledger %.3f J", battery.UsedJoules(), ledger.TotalJoules())
	}
	// Single-auth energy should be on the order of a couple of joules
	// (0.6% battery per 100 auths ⇒ ≈2.1 J each).
	if j := ledger.TotalJoules(); j < 0.5 || j > 5 {
		t.Fatalf("per-auth energy %.2f J outside plausible band", j)
	}
}

func TestRunACTIONValidation(t *testing.T) {
	cfg := DefaultConfig()
	auth, vouch := newPair(t, 1.0, true)
	rng := rand.New(rand.NewSource(10))
	if _, err := NewAuthenticator(cfg, nil, vouch, rng); err == nil {
		t.Error("nil device accepted")
	}
	a, err := NewAuthenticator(cfg, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Extra play sharing a protocol device must be rejected.
	if _, err := a.Measure(ExtraPlay{Device: auth, Samples: []float64{1}}); err == nil {
		t.Error("extra play on protocol device accepted")
	}
	if _, err := a.Measure(ExtraPlay{}); err == nil {
		t.Error("nil extra device accepted")
	}
	// Too-short recording window should error, not silently truncate.
	short := cfg
	short.World.DurationSec = 0.3
	b, err := NewAuthenticator(short, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Measure(); err == nil {
		t.Error("short recording accepted")
	}
}

func TestLocDiffCodec(t *testing.T) {
	m := locDiffMsg{diff: -12345, rate: 44100}
	got, err := decodeLocDiff(encodeLocDiff(m))
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip %+v", got)
	}
	if _, err := decodeLocDiff([]byte{1, 2, 3}); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestReasonStrings(t *testing.T) {
	for r, want := range map[Reason]string{
		ReasonGranted:                  "granted",
		ReasonBluetoothOutOfRange:      "denied: vouching device out of Bluetooth range",
		ReasonSignalAbsent:             "denied: reference signal not present",
		ReasonDistanceExceedsThreshold: "denied: distance exceeds threshold",
		Reason(42):                     "reason(42)",
	} {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q", r, got)
		}
	}
}
