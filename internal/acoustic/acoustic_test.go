package acoustic

import (
	"math"
	"math/rand"
	"testing"

	"github.com/acoustic-auth/piano/internal/dsp"
)

func TestDefaultChannelConfigValid(t *testing.T) {
	if err := DefaultChannelConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChannelConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ChannelConfig)
	}{
		{"zero ref gain", func(c *ChannelConfig) { c.RefGain = 0 }},
		{"zero max gain", func(c *ChannelConfig) { c.MaxGain = 0 }},
		{"wall above 1", func(c *ChannelConfig) { c.WallTransmission = 1.5 }},
		{"wall negative", func(c *ChannelConfig) { c.WallTransmission = -0.1 }},
		{"zero min distance", func(c *ChannelConfig) { c.MinDistance = 0 }},
		{"negative taps", func(c *ChannelConfig) { c.TransducerTaps = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultChannelConfig()
			c.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s accepted", c.name)
			}
		})
	}
}

func TestGainMonotoneAndClamped(t *testing.T) {
	cfg := DefaultChannelConfig()
	if g := cfg.Gain(0.001); g != cfg.MaxGain {
		t.Errorf("near-field gain %g, want clamp %g", g, cfg.MaxGain)
	}
	prev := math.Inf(1)
	for d := 0.5; d <= 4; d += 0.5 {
		g := cfg.Gain(d)
		if g > prev {
			t.Errorf("gain not monotone at %g m", d)
		}
		prev = g
	}
	// Calibration anchor: ~4% power at 2.5 m (the paper's detectability
	// limit d_s ≈ 2.5 m emerges from this together with α = 1%).
	g := cfg.Gain(2.5)
	if g*g < 0.01 || g*g > 0.1 {
		t.Errorf("power gain at 2.5 m = %g, outside calibrated band", g*g)
	}
}

func TestNewPathBasics(t *testing.T) {
	cfg := DefaultChannelConfig()
	rng := rand.New(rand.NewSource(1))
	pr := ProfileFor(EnvOffice)

	p, err := NewPath(cfg, pr, 1.0, true, 44100, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The base delay wanders around the geometric value by the
	// environment's time-of-flight jitter (±5σ bound here).
	wantDelay := 1.0 / SpeedOfSoundMPS * 44100
	if math.Abs(p.BaseDelaySamples-wantDelay) > 5*pr.PathJitterSamples {
		t.Errorf("base delay %g, want %g ± jitter", p.BaseDelaySamples, wantDelay)
	}

	// Self-range paths (≤0.2 m) must not wander at all.
	self, err := NewPath(cfg, pr, 0.05, true, 44100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := self.BaseDelaySamples, 0.05/SpeedOfSoundMPS*44100; math.Abs(got-want) > 1e-9 {
		t.Errorf("self path delay %g, want exact %g", got, want)
	}
	if p.Blocked {
		t.Error("same-room path marked blocked")
	}
	if len(p.Taps) != 1+cfg.TransducerTaps+pr.ReflectionCount {
		t.Errorf("tap count %d", len(p.Taps))
	}
	if p.Taps[0].DelaySamples != 0 {
		t.Error("direct tap has nonzero delay")
	}
	if math.Abs(p.Taps[0].Gain-cfg.Gain(1.0)) > 1e-12 {
		t.Errorf("direct gain %g", p.Taps[0].Gain)
	}
}

func TestNewPathWallAttenuates(t *testing.T) {
	cfg := DefaultChannelConfig()
	rng := rand.New(rand.NewSource(2))
	pr := ProfileFor(EnvQuiet)
	open, err := NewPath(cfg, pr, 1.0, true, 44100, rng)
	if err != nil {
		t.Fatal(err)
	}
	walled, err := NewPath(cfg, pr, 1.0, false, 44100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !walled.Blocked {
		t.Error("walled path not marked blocked")
	}
	ratio := walled.Taps[0].Gain / open.Taps[0].Gain
	if math.Abs(ratio-cfg.WallTransmission) > 1e-12 {
		t.Errorf("wall ratio %g, want %g", ratio, cfg.WallTransmission)
	}
}

func TestNewPathValidation(t *testing.T) {
	cfg := DefaultChannelConfig()
	pr := ProfileFor(EnvOffice)
	rng := rand.New(rand.NewSource(3))
	if _, err := NewPath(cfg, pr, 1, true, 0, rng); err == nil {
		t.Error("zero sample rate accepted")
	}
	if _, err := NewPath(cfg, pr, 1, true, 44100, nil); err == nil {
		t.Error("nil rng accepted")
	}
	bad := cfg
	bad.RefGain = -1
	if _, err := NewPath(bad, pr, 1, true, 44100, rng); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestEnvironmentStrings(t *testing.T) {
	names := map[Environment]string{
		EnvQuiet:      "quiet",
		EnvOffice:     "office",
		EnvHome:       "home",
		EnvRestaurant: "restaurant",
		EnvStreet:     "street",
	}
	for env, want := range names {
		if got := env.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", env, got, want)
		}
	}
	if got := Environment(99).String(); got != "environment(99)" {
		t.Errorf("unknown env = %q", got)
	}
	if len(AllEnvironments()) != 4 {
		t.Error("AllEnvironments should list the four Fig. 1 environments")
	}
}

func TestGenerateNoiseRMSLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 44100
	for _, env := range AllEnvironments() {
		pr := ProfileFor(env)
		noise, err := pr.GenerateNoise(44100, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		rms := math.Sqrt(dsp.TotalPower(noise))
		// RMS should be dominated by (and at least as large as) the hum.
		if rms < 0.5*pr.HumRMS || rms > 4*pr.HumRMS {
			t.Errorf("%s: rms %g vs hum %g", env, rms, pr.HumRMS)
		}
	}
}

// TestNoiseSpectrumConcentratesBelow6kHz reproduces the measurement that
// motivated the paper's candidate band: ambient power must concentrate
// below ~6 kHz, leaving the aliased candidate band (9–19 kHz) quiet.
func TestNoiseSpectrumConcentratesBelow6kHz(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const (
		fs = 44100.0
		n  = 16384
	)
	for _, env := range AllEnvironments() {
		pr := ProfileFor(env)
		noise, err := pr.GenerateNoise(fs, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		spec := powerSpectrum(t, noise)
		cut := dsp.BinIndex(6000, fs, n)
		var below, total float64
		for k := 1; k <= n/2; k++ {
			total += spec[k]
			if k <= cut {
				below += spec[k]
			}
		}
		if frac := below / total; frac < 0.9 {
			t.Errorf("%s: only %.1f%% of noise power below 6 kHz", env, frac*100)
		}
	}
}

func TestGenerateNoiseValidation(t *testing.T) {
	pr := ProfileFor(EnvOffice)
	rng := rand.New(rand.NewSource(6))
	if _, err := pr.GenerateNoise(0, 10, rng); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := pr.GenerateNoise(44100, -1, rng); err == nil {
		t.Error("negative length accepted")
	}
	if _, err := pr.GenerateNoise(44100, 10, nil); err == nil {
		t.Error("nil rng accepted")
	}
	got, err := pr.GenerateNoise(44100, 0, rng)
	if err != nil || len(got) != 0 {
		t.Error("zero length should succeed with empty output")
	}
}

func TestQuietProfileIsSilent(t *testing.T) {
	pr := ProfileFor(EnvQuiet)
	noise, err := pr.GenerateNoise(44100, 1000, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range noise {
		if v != 0 {
			t.Fatalf("quiet noise sample %d = %g", i, v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const mean = 5.0
	var sum int
	const trials = 2000
	for i := 0; i < trials; i++ {
		sum += poisson(mean, rng)
	}
	got := float64(sum) / trials
	if math.Abs(got-mean) > 0.3 {
		t.Fatalf("poisson mean %g, want ≈%g", got, mean)
	}
	if poisson(0, rng) != 0 || poisson(-1, rng) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

// powerSpectrum is the full-length normalized power spectrum of x on the
// planned transform (dsp.FFTPlan.PowerSpectrumInto).
func powerSpectrum(t *testing.T, x []float64) []float64 {
	t.Helper()
	plan, err := dsp.SharedFFTPlan(len(x))
	if err != nil {
		t.Fatal(err)
	}
	spec := make([]float64, len(x))
	if err := plan.PowerSpectrumInto(spec, x, plan.NewScratch()); err != nil {
		t.Fatal(err)
	}
	return spec
}
