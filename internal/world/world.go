package world

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/audio"
	"github.com/acoustic-auth/piano/internal/device"
)

// Config describes the scene-wide simulation parameters.
type Config struct {
	// SampleRate is the nominal scene sampling rate (44100 Hz).
	SampleRate float64
	// DurationSec is how long every device records.
	DurationSec float64
	// Environment selects the ambient-noise profile.
	Environment acoustic.Environment
	// Channel holds the physical channel constants.
	Channel acoustic.ChannelConfig
}

// DefaultConfig returns a 1.2 s office scene at 44.1 kHz.
func DefaultConfig() Config {
	return Config{
		SampleRate:  44100,
		DurationSec: 1.2,
		Environment: acoustic.EnvOffice,
		Channel:     acoustic.DefaultChannelConfig(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SampleRate <= 0 {
		return errors.New("world: sample rate must be positive")
	}
	if c.DurationSec <= 0 {
		return errors.New("world: duration must be positive")
	}
	return c.Channel.Validate()
}

// playEvent is one scheduled speaker emission.
type playEvent struct {
	src      *device.Device
	samples  []float64
	startSec float64 // global time sound leaves the speaker
}

// World is a single acoustic scene. A World belongs to one session: build
// it, add devices, schedule plays, render, discard. Concurrent sessions
// must each use their own World with their own seeded RNG stream — the
// scene RNG is consumed in a defined sequential order during Render, which
// is what makes a seeded session reproducible. As a safety net the RNG
// draw phase is serialized under an internal lock, so a World erroneously
// shared between goroutines corrupts determinism but not memory.
type World struct {
	cfg     Config
	profile acoustic.Profile
	// mu serializes the Render draw phase (the only consumer of rng once
	// the scene is built).
	mu      sync.Mutex
	rng     *rand.Rand
	devices []*device.Device
	// members mirrors devices for O(1) membership checks in AddDevice and
	// SchedulePlay (scenes with many interferers used to pay a linear scan
	// per scheduled play).
	members map[*device.Device]bool
	plays   []playEvent
}

// New builds a scene. The rng drives noise, reflection geometry, and any
// randomness in scheduled interference; callers seed it for reproducible
// experiments.
func New(cfg Config, rng *rand.Rand) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("world: nil rng")
	}
	return &World{
		cfg:     cfg,
		profile: acoustic.ProfileFor(cfg.Environment),
		rng:     rng,
		devices: nil,
		members: make(map[*device.Device]bool),
		plays:   nil,
	}, nil
}

// AddDevice registers a device in the scene. Its microphone records for the
// scene duration starting at its own clock offset.
func (w *World) AddDevice(d *device.Device) error {
	if d == nil {
		return errors.New("world: nil device")
	}
	if w.members[d] {
		return fmt.Errorf("world: device %q already added", d.Name())
	}
	w.devices = append(w.devices, d)
	w.members[d] = true
	return nil
}

// SchedulePlay queues samples to leave src's speaker at the given global
// time. The samples are in int16 amplitude scale.
//
// Ownership contract: the world keeps a reference to samples instead of
// deep-copying it (reference signals are synthesized per session and never
// mutated, so the copy was pure overhead). The caller must not modify the
// slice until after Render; callers that reuse a scratch waveform buffer
// should pass their own copy.
func (w *World) SchedulePlay(src *device.Device, samples []float64, globalStartSec float64) error {
	if src == nil {
		return errors.New("world: nil source device")
	}
	if !w.members[src] {
		return fmt.Errorf("world: device %q not in scene", src.Name())
	}
	w.plays = append(w.plays, playEvent{src: src, samples: samples, startSec: globalStartSec})
	return nil
}

// renderJob carries the pre-drawn randomness for one device's recording:
// every channel realization plus the ambient noise, in the exact order the
// historical sequential renderer consumed the scene RNG.
type renderJob struct {
	dst   *device.Device
	n     int
	paths []*acoustic.Path // one per scheduled play, in play order
	noise []float64
}

// Render produces each device's recording: the superposition of every
// scheduled play propagated through a freshly drawn channel realization,
// plus the environment's ambient noise, quantized once to int16.
//
// Rendering is split in two phases. Phase one walks devices sequentially
// and draws everything random (channel paths, ambient noise) from the scene
// RNG, preserving the historical draw order so a seeded scene renders
// bit-identically regardless of parallelism. Phase two — the allpass
// cascades and windowed-sinc tap mixing, which dominate render cost and
// touch no shared state — runs each device on a bounded worker pool.
func (w *World) Render() (map[*device.Device]*audio.Buffer, error) {
	jobs, err := w.drawJobs()
	if err != nil {
		return nil, err
	}

	bufs := make([]*audio.Buffer, len(jobs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for di := range jobs {
			bufs[di] = w.mix(&jobs[di])
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for di := range jobs {
			wg.Add(1)
			sem <- struct{}{}
			go func(di int) {
				defer wg.Done()
				bufs[di] = w.mix(&jobs[di])
				<-sem
			}(di)
		}
		wg.Wait()
	}

	out := make(map[*device.Device]*audio.Buffer, len(w.devices))
	for di, dst := range w.devices {
		out[dst] = bufs[di]
	}
	return out, nil
}

// drawJobs is Render's phase one: walk devices sequentially and draw
// everything random (channel paths, ambient noise) from the scene RNG in
// the historical order, under the scene lock.
func (w *World) drawJobs() ([]renderJob, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	jobs := make([]renderJob, len(w.devices))
	for di, dst := range w.devices {
		job := renderJob{
			dst:   dst,
			n:     int(w.cfg.DurationSec * dst.Clock().TrueRate()),
			paths: make([]*acoustic.Path, len(w.plays)),
		}
		for pi, play := range w.plays {
			distance := play.src.DistanceTo(dst)
			sameRoom := play.src.SameRoom(dst)
			if play.src == dst {
				distance = dst.SelfDistance()
				sameRoom = true
			}
			path, err := acoustic.NewPath(w.cfg.Channel, w.profile, distance, sameRoom, w.cfg.SampleRate, w.rng)
			if err != nil {
				return nil, fmt.Errorf("world: render for %q: %w", dst.Name(), err)
			}
			job.paths[pi] = path
		}
		noise, err := w.profile.GenerateNoise(dst.Clock().TrueRate(), job.n, w.rng)
		if err != nil {
			return nil, fmt.Errorf("world: render for %q: %w", dst.Name(), err)
		}
		job.noise = noise
		jobs[di] = job
	}
	return jobs, nil
}

// mix computes one microphone's recording from pre-drawn randomness. It is
// the render hot path: per play one allpass cascade into workspace-owned
// scratch, then the path's taps folded into one composite sparse FIR
// (acoustic.Path.CompositeKernel) applied by a single convolution
// (audio.MixSparseFIR) — exactly one convolution per play per path, and a
// per-path-constant number of heap allocations however many taps the channel
// has.
//
// Folding the taps first changes the floating-point summation order relative
// to the historical per-tap loop (mixNaive / RenderNaive in
// composite_test.go, the parity oracle): coefficients that land on the same destination sample are
// summed inside the kernel before multiplying the source sample, instead of
// accumulating per tap. Outputs therefore agree with the oracle to ~1e-12
// relative — not bit-exactly — which is why the golden recordings under
// testdata/ were re-baselined for this path (procedure: world_golden_test.go
// and PERFORMANCE.md).
func (w *World) mix(job *renderJob) *audio.Buffer {
	return &audio.Buffer{SampleRate: job.dst.SampleRate(), Samples: audio.FromFloat(w.mixFloat(job))}
}

// mixFloat is mix before int16 quantization; split out so parity tests can
// compare the composite and naive mixers in the float domain, where sub-LSB
// differences are visible.
func (w *World) mixFloat(job *renderJob) []float64 {
	acc := make([]float64, job.n)
	var allpass acoustic.AllpassWorkspace
	rate := job.dst.Clock().TrueRate() / w.cfg.SampleRate

	for pi, play := range w.plays {
		path := job.paths[pi]
		dispersed := allpass.Apply(play.samples, path.AllpassCoeffs)
		base := job.dst.Clock().SampleAt(play.startSec + path.BaseDelaySamples/w.cfg.SampleRate)
		audio.MixSparseFIR(acc, dispersed, path.CompositeKernel(base, rate))
	}

	for i := range acc {
		acc[i] += job.noise[i]
	}
	return acc
}
