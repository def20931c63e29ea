package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/acoustic-auth/piano/internal/detect"
	"github.com/acoustic-auth/piano/internal/device"
)

// runSession measures one seeded ACTION session between a 0.8 m pair, with
// an optional injected detector and extra plays built by mkExtras (which
// draws from the same session rng, exactly like the public Deployment
// path).
func runSession(t *testing.T, seed int64, det *detect.Detector,
	mkExtras func(cfg Config, rng *rand.Rand) []ExtraPlay) *SessionResult {
	t.Helper()
	cfg := DefaultConfig()
	auth, vouch := newPair(t, 0.8, true)
	rng := rand.New(rand.NewSource(seed))
	a, err := NewAuthenticator(cfg, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}
	a.UseDetector(det)
	var extras []ExtraPlay
	if mkExtras != nil {
		extras = mkExtras(cfg, rng)
	}
	sr, err := a.Measure(extras...)
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestInjectedDetectorBitIdentical: a session driven by a service-shared
// detector (its pooled workspaces reused across sessions) must reproduce
// the self-contained session bit for bit.
func TestInjectedDetectorBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	det, err := detect.New(cfg.Detect)
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range []int64{1, 42, 977} {
		plain := runSession(t, seed, nil, nil)
		shared := runSession(t, seed, det, nil)
		if *plain != *shared {
			t.Fatalf("seed %d: injected-detector session diverged:\nplain  %+v\nshared %+v", seed, plain, shared)
		}
		if math.Float64bits(plain.DistanceM) != math.Float64bits(shared.DistanceM) {
			t.Fatalf("seed %d: distance bits differ", seed)
		}
	}
}

// TestInjectedDetectorConfigMismatchRejected: silently scanning with
// parameters other than the session's declared ones would corrupt results;
// the session must refuse instead.
func TestInjectedDetectorConfigMismatchRejected(t *testing.T) {
	cfg := DefaultConfig()
	other := cfg.Detect
	other.Theta++
	det, err := detect.New(other)
	if err != nil {
		t.Fatal(err)
	}
	auth, vouch := newPair(t, 0.8, true)
	a, err := NewAuthenticator(cfg, auth, vouch, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	a.UseDetector(det)
	if _, err := a.Measure(); err == nil {
		t.Fatal("detector with mismatched parameters accepted")
	}
}

// TestExtraPlaySharedBackingSliceSafe pins the ExtraPlay ownership
// contract: one immutable waveform may back several plays of one session
// (sessions only read scheduled samples), and reusing the same plays for a
// second session renders from the unchanged waveform.
func TestExtraPlaySharedBackingSliceSafe(t *testing.T) {
	mk := func(cfg Config, rng *rand.Rand) []ExtraPlay {
		dev, err := device.New(device.Config{
			Name:       "interferer",
			Position:   [2]float64{2.5, 1.5},
			SampleRate: 44100,
			ProcDelay:  device.DefaultProcessingDelay(),
		})
		if err != nil {
			t.Fatal(err)
		}
		burst := make([]float64, cfg.Signal.Length)
		for i := range burst {
			burst[i] = 2000 * math.Sin(2*math.Pi*30500/cfg.Signal.SampleRate*float64(i))
		}
		// Both plays alias one backing slice on purpose.
		return []ExtraPlay{
			{Device: dev, Samples: burst, AtSec: 0.3},
			{Device: dev, Samples: burst, AtSec: 0.9},
		}
	}
	a := runSession(t, 7, nil, mk)
	b := runSession(t, 7, nil, mk)
	if *a != *b {
		t.Fatalf("re-running with shared-backing extra plays diverged:\n%+v\n%+v", a, b)
	}
}
