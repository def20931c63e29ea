package attack

import (
	"math/rand"
	"testing"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/device"
	"github.com/acoustic-auth/piano/internal/dsp"
	"github.com/acoustic-auth/piano/internal/sigref"
)

func TestNewAttackerDevice(t *testing.T) {
	d, err := NewAttackerDevice("mallory", [2]float64{0.4, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "mallory" || d.Room() != 0 {
		t.Fatal("attacker device misconfigured")
	}
	if _, err := NewAttackerDevice("", [2]float64{0, 0}, 0); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestGuessingReplayShape(t *testing.T) {
	p := sigref.DefaultParams()
	rng := rand.New(rand.NewSource(1))
	atk, err := NewAttackerDevice("mallory", [2]float64{0.4, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	plays, err := GuessingReplay(p, atk, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(plays) != 2 {
		t.Fatalf("%d plays, want 2 (guessed S_A and S_V)", len(plays))
	}
	for _, pl := range plays {
		if pl.Device != atk || !pl.Random {
			t.Fatal("play misconfigured")
		}
		if len(pl.Samples) != p.Length {
			t.Fatalf("guessed signal length %d", len(pl.Samples))
		}
	}
	if _, err := GuessingReplay(p, nil, rng); err == nil {
		t.Fatal("nil attacker accepted")
	}
	if _, err := GuessingReplay(p, atk, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

// TestAllFrequencyCoversAllCandidates verifies the spoof signal carries
// power at every candidate frequency — the construction §V describes.
func TestAllFrequencyCoversAllCandidates(t *testing.T) {
	p := sigref.DefaultParams()
	rng := rand.New(rand.NewSource(2))
	atk, err := NewAttackerDevice("mallory", [2]float64{0.4, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	plays, err := AllFrequency(p, atk, 0.2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(plays) != 1 || plays[0].AtSec != 0 {
		t.Fatalf("plays %+v", plays)
	}
	window := plays[0].Samples[:p.Length]
	spec := powerSpectrum(t, window)
	amp := p.FullScale / float64(p.NumCandidates)
	for i, f := range p.Candidates() {
		bin := dsp.BinIndex(f, p.SampleRate, p.Length)
		if got := dsp.BandPower(spec, bin, 5); got < 0.3*amp*amp {
			t.Errorf("candidate %d power %g too low", i, got)
		}
	}

	if _, err := AllFrequency(p, nil, 1, 1, rng); err == nil {
		t.Fatal("nil attacker accepted")
	}
	if _, err := AllFrequency(p, atk, 0, 1, rng); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestInterferencePlays(t *testing.T) {
	p := sigref.DefaultParams()
	rng := rand.New(rand.NewSource(3))
	d1, err := NewAttackerDevice("u2", [2]float64{2, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewAttackerDevice("u3", [2]float64{-2, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	plays, err := Interference(p, []*device.Device{d1, d2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(plays) != 4 {
		t.Fatalf("%d plays, want 4 (2 users × 2 signals)", len(plays))
	}
	if _, err := Interference(p, []*device.Device{nil}, rng); err == nil {
		t.Fatal("nil device accepted")
	}
	if _, err := Interference(p, nil, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

// TestSpoofingAttacksAllFail is the §VI-E result in miniature: with the
// user away (6 m), neither attack ever yields a grant.
func TestSpoofingAttacksAllFail(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.World.Environment = acoustic.EnvOffice
	rng := rand.New(rand.NewSource(4))

	auth, err := device.New(device.Config{
		Name: "auth", Position: [2]float64{0, 0}, SampleRate: 44100,
		ProcDelay: device.DefaultProcessingDelay(),
	})
	if err != nil {
		t.Fatal(err)
	}
	vouch, err := device.New(device.Config{
		Name: "vouch", Position: [2]float64{6, 0}, SampleRate: 44100,
		ProcDelay: device.DefaultProcessingDelay(),
	})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := NewAttackerDevice("mallory", [2]float64{0.4, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAuthenticator(cfg, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}

	const trials = 5
	for i := 0; i < trials; i++ {
		replay, err := GuessingReplay(cfg.Signal, atk, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Authenticate(replay...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Granted {
			t.Fatalf("replay attack %d granted (distance %.2f)", i, res.DistanceM)
		}

		spoof, err := AllFrequency(cfg.Signal, atk, cfg.World.DurationSec, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err = a.Authenticate(spoof...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Granted {
			t.Fatalf("all-frequency attack %d granted", i)
		}
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
