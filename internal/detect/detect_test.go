package detect

import (
	"math"
	"math/rand"
	"testing"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/audio"
	"github.com/acoustic-auth/piano/internal/device"
	"github.com/acoustic-auth/piano/internal/sigref"
	"github.com/acoustic-auth/piano/internal/world"
)

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"alpha 0", func(c *Config) { c.Alpha = 0 }},
		{"alpha 1", func(c *Config) { c.Alpha = 1 }},
		{"beta 0", func(c *Config) { c.BetaFrac = 0 }},
		{"epsilon 0", func(c *Config) { c.Epsilon = 0 }},
		{"theta neg", func(c *Config) { c.Theta = -1 }},
		{"coarse 0", func(c *Config) { c.CoarseStep = 0 }},
		{"fine > coarse", func(c *Config) { c.FineStep = 2000 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Errorf("%s accepted", c.name)
			}
		})
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

// plantSignal embeds sig's waveform (scaled by gain) at the given location
// in a noise-free recording of length total.
func plantSignal(sig *sigref.Signal, total, at int, gain float64) []float64 {
	rec := make([]float64, total)
	for i, v := range sig.Samples() {
		if at+i < total {
			rec[at+i] += gain * v
		}
	}
	return rec
}

func TestDetectCleanPlantedSignal(t *testing.T) {
	p := sigref.DefaultParams()
	rng := rand.New(rand.NewSource(1))
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{0, 1234, 7777, 20000} {
		sig, err := sigref.New(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		rec := plantSignal(sig, 30000, at, 0.5)
		res, err := detectOne(det, rec, sig)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("at=%d: signal not found", at)
		}
		if d := res.Location - at; d < -det.Config().FineStep || d > det.Config().FineStep {
			t.Fatalf("at=%d: located %d (off by %d)", at, res.Location, res.Location-at)
		}
	}
}

func TestDetectAbsentSignalIsBottom(t *testing.T) {
	p := sigref.DefaultParams()
	rng := rand.New(rand.NewSource(2))
	sig, err := sigref.New(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Pure silence.
	res, err := detectOne(det, make([]float64, 20000), sig)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("found signal in silence")
	}

	// A different random signal (disjoint draw) should not match either.
	other, err := sigref.New(p, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	rec := plantSignal(other, 20000, 5000, 0.5)
	res, err = detectOne(det, rec, sig)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("detected the wrong reference signal")
	}
}

func TestDetectHeavilyAttenuatedIsAbsent(t *testing.T) {
	p := sigref.DefaultParams()
	sig, err := sigref.New(p, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Wall-grade attenuation: amplitude 0.02 → power 0.04% < α.
	rec := plantSignal(sig, 20000, 5000, 0.02)
	res, err := detectOne(det, rec, sig)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("detected signal attenuated below the α floor")
	}
}

// TestNormPowerSanityChecks exercises Algorithm 2's two checks directly.
func TestNormPowerSanityChecks(t *testing.T) {
	p := sigref.DefaultParams()
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sig, err := sigref.NewFromIndices(p, []int{3, 10, 20}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Perfectly aligned clean window: finite, large power.
	pw, err := det.NormPower(sig.Samples(), sig)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(pw, -1) {
		t.Fatal("clean aligned window rejected")
	}
	if pw < 0.5*sig.TotalRF() {
		t.Fatalf("norm power %g too small vs R_S %g", pw, sig.TotalRF())
	}

	// All-frequency window (every candidate hot): β check must reject.
	all := make([]int, p.NumCandidates-1)
	for i := range all {
		all[i] = i
	}
	allSig, err := sigref.NewFromIndices(p, all, nil)
	if err != nil {
		t.Fatal(err)
	}
	pw, err = det.NormPower(allSig.Samples(), sig)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(pw, -1) {
		t.Fatalf("all-frequency window accepted with power %g", pw)
	}

	// Silence: α check must reject.
	pw, err = det.NormPower(make([]float64, p.Length), sig)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(pw, -1) {
		t.Fatal("silent window accepted")
	}

	// Window length mismatch is an error.
	if _, err := det.NormPower(make([]float64, 100), sig); err == nil {
		t.Fatal("bad window length accepted")
	}
	if _, err := det.NormPower(nil, nil); err == nil {
		t.Fatal("nil signal accepted")
	}
}

func TestDetectAllValidation(t *testing.T) {
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detectFloat(det, make([]float64, 10000)); err == nil {
		t.Error("no signals accepted")
	}
	p := sigref.DefaultParams()
	sig, err := sigref.New(p, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detectFloat(det, make([]float64, 100), sig); err == nil {
		t.Error("short recording accepted")
	}
	if _, err := detectFloat(det, make([]float64, 10000), sig, nil); err == nil {
		t.Error("nil signal accepted")
	}
	p2 := p
	p2.Length = 2048
	sig2, err := sigref.New(p2, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detectFloat(det, make([]float64, 10000), sig, sig2); err == nil {
		t.Error("mismatched params accepted")
	}
}

func TestDetectBothSignalsOneScan(t *testing.T) {
	p := sigref.DefaultParams()
	rng := rand.New(rand.NewSource(6))
	s1, err := sigref.New(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sigref.New(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec := plantSignal(s1, 40000, 3000, 0.5)
	for i, v := range s2.Samples() {
		rec[20000+i] += 0.4 * v
	}
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	results, err := detectFloat(det, rec, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Found || !results[1].Found {
		t.Fatalf("found=%v/%v", results[0].Found, results[1].Found)
	}
	if d := results[0].Location - 3000; d < -10 || d > 10 {
		t.Errorf("s1 at %d", results[0].Location)
	}
	if d := results[1].Location - 20000; d < -10 || d > 10 {
		t.Errorf("s2 at %d", results[1].Location)
	}
}

// TestDetectThroughSimulatedChannel is the integration gate: a reference
// signal played through the acoustic world at 1 m in an office must be
// located within a few fine steps of its true arrival.
func TestDetectThroughSimulatedChannel(t *testing.T) {
	p := sigref.DefaultParams()
	rng := rand.New(rand.NewSource(7))
	sig, err := sigref.New(p, rng)
	if err != nil {
		t.Fatal(err)
	}

	wcfg := world.DefaultConfig()
	wcfg.Environment = acoustic.EnvOffice
	wcfg.DurationSec = 0.8
	w, err := world.New(wcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	src, err := device.New(device.Config{Name: "src", Position: [2]float64{0, 0}, SampleRate: 44100})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := device.New(device.Config{Name: "dst", Position: [2]float64{1, 0}, SampleRate: 44100})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddDevice(src); err != nil {
		t.Fatal(err)
	}
	if err := w.AddDevice(dst); err != nil {
		t.Fatal(err)
	}

	const playAt = 0.25
	if err := w.SchedulePlay(src, sig.Samples(), playAt); err != nil {
		t.Fatal(err)
	}
	recs, err := w.Render()
	if err != nil {
		t.Fatal(err)
	}

	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := detectOne(det, recs[dst].Float(), sig)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("signal not found through channel")
	}
	wantArrival := (playAt + 1.0/acoustic.SpeedOfSoundMPS) * 44100
	if diff := math.Abs(float64(res.Location) - wantArrival); diff > 40 {
		t.Fatalf("located %d, want ≈%g (off %g samples)", res.Location, wantArrival, diff)
	}
	_ = audio.MaxSample // keep audio import for the int16-scale contract
}

func TestDetectCrossCorrelationCleanChannel(t *testing.T) {
	p := sigref.DefaultParams()
	sig, err := sigref.New(p, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// On a clean, undistorted channel cross-correlation works perfectly —
	// it's the frequency smoothing that breaks it (see baseline tests).
	rec := plantSignal(sig, 20000, 6000, 0.5)
	res, err := det.DetectCrossCorrelation(rec, sig)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Location != 6000 {
		t.Fatalf("cc located %d, want 6000", res.Location)
	}
	if _, err := det.DetectCrossCorrelation(rec, nil); err == nil {
		t.Error("nil signal accepted")
	}
	if _, err := det.DetectCrossCorrelation(make([]float64, 10), sig); err == nil {
		t.Error("short recording accepted")
	}
}
