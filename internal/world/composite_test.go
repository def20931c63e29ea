package world

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/audio"
	"github.com/acoustic-auth/piano/internal/device"
	"github.com/acoustic-auth/piano/internal/dsp"
)

// buildEnvScene is buildScene with a selectable environment (reflection
// richness scales with the environment, so the restaurant profile exercises
// multi-segment composite kernels).
func buildEnvScene(tb testing.TB, seed int64, taps int, env acoustic.Environment) *World {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.DurationSec = 0.6
	cfg.Environment = env
	cfg.Channel.TransducerTaps = taps
	w, err := New(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	a := newBenchDevice(tb, "a", [2]float64{0, 0})
	b := newBenchDevice(tb, "b", [2]float64{0.8, 0})
	if err := w.AddDevice(a); err != nil {
		tb.Fatal(err)
	}
	if err := w.AddDevice(b); err != nil {
		tb.Fatal(err)
	}
	tone, err := dsp.Sine(30000, 8000, 0, 44100, 4096)
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.SchedulePlay(a, tone, 0.1); err != nil {
		tb.Fatal(err)
	}
	if err := w.SchedulePlay(b, tone, 0.35); err != nil {
		tb.Fatal(err)
	}
	return w
}

// TestRenderCompositeMatchesNaive is the render-level parity oracle: for the
// same pre-drawn channel realizations, the composite-kernel mixer must match
// the historical per-tap loop within 1e-9 of the recording peak, in the
// float domain (before int16 quantization hides sub-LSB differences). The
// two mixers differ only in floating-point summation order — per-tap
// contributions are folded into kernel coefficients before multiplying the
// source — so anything past ~1e-12 relative indicates a folding bug.
// Exercised at a small tap count (the default channel) and at a large one
// (the regime the composite path exists for), per the cache-invalidation
// satellite.
func TestRenderCompositeMatchesNaive(t *testing.T) {
	cases := []struct {
		name string
		taps int
		env  acoustic.Environment
	}{
		{"small: 2 transducer taps, office", 2, acoustic.EnvOffice},
		{"large: 16 transducer taps, restaurant reflections", 16, acoustic.EnvRestaurant},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := buildEnvScene(t, 71, tc.taps, tc.env)
			jobs, err := w.drawJobs()
			if err != nil {
				t.Fatal(err)
			}
			for ji := range jobs {
				naive := w.mixNaiveFloat(&jobs[ji])
				composite := w.mixFloat(&jobs[ji])
				peak := 0.0
				for _, v := range naive {
					if a := math.Abs(v); a > peak {
						peak = a
					}
				}
				tol := 1e-9 * math.Max(1, peak)
				for i := range naive {
					if d := math.Abs(naive[i] - composite[i]); d > tol {
						t.Fatalf("device %q sample %d: naive %g vs composite %g (diff %g > tol %g)",
							jobs[ji].dst.Name(), i, naive[i], composite[i], d, tol)
					}
				}
			}
		})
	}
}

// TestRenderOneConvolutionPerPlayPerPath is the acceptance op-count gate:
// Render must perform exactly one sparse-FIR convolution per (play, device)
// path and zero per-tap sinc mixes, however many taps the channel has.
func TestRenderOneConvolutionPerPlayPerPath(t *testing.T) {
	w := buildEnvScene(t, 72, 12, acoustic.EnvRestaurant)
	sparse0, sinc0 := audio.SparseFIRMixCalls(), audio.SincMixCalls()
	if _, err := w.Render(); err != nil {
		t.Fatal(err)
	}
	plays, devices := len(w.plays), len(w.devices)
	if got, want := audio.SparseFIRMixCalls()-sparse0, uint64(plays*devices); got != want {
		t.Fatalf("%d sparse-FIR convolutions, want exactly %d (plays %d × devices %d)",
			got, want, plays, devices)
	}
	if got := audio.SincMixCalls() - sinc0; got != 0 {
		t.Fatalf("Render made %d per-tap sinc mixes, want 0 (all taps must fold into the composite kernel)", got)
	}
}

// TestRenderRebuildsKernelsAfterGeometryChange is the world-level
// cache-invalidation regression test: a render caches composite kernels on
// its freshly drawn paths, and a geometry change (the user walked away)
// before the next render must produce recordings reflecting the new
// geometry, never a stale kernel. Structurally guaranteed — every Render
// redraws its paths — but pinned here so a future path-reuse optimization
// cannot silently break it.
func TestRenderRebuildsKernelsAfterGeometryChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Environment = acoustic.EnvQuiet
	cfg.DurationSec = 0.5
	cfg.Channel.TransducerTaps = 0
	w, err := New(cfg, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	src := newDevice(t, "src", [2]float64{0, 0}, 0, 0)
	dst := newDevice(t, "dst", [2]float64{1.0, 0}, 0, 0)
	if err := w.AddDevice(src); err != nil {
		t.Fatal(err)
	}
	if err := w.AddDevice(dst); err != nil {
		t.Fatal(err)
	}
	tone, err := dsp.Sine(10000, 10000, 0, 44100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SchedulePlay(src, tone, 0.1); err != nil {
		t.Fatal(err)
	}

	arrival := func() int {
		recs, err := w.Render()
		if err != nil {
			t.Fatal(err)
		}
		// Threshold well below the far-position peak (gain(2 m)·10000 =
		// 1600) but above the windowed-sinc pre-ring.
		for i, v := range recs[dst].Float() {
			if math.Abs(v) > 800 {
				return i
			}
		}
		t.Fatal("tone never arrived")
		return -1
	}

	near := arrival()
	dst.SetPosition([2]float64{2.0, 0}) // one meter further
	far := arrival()
	wantShift := 1.0 / acoustic.SpeedOfSoundMPS * 44100 // ≈128.6 samples
	if d := float64(far - near); math.Abs(d-wantShift) > 8 {
		t.Fatalf("arrival shifted %g samples after moving 1 m, want ≈%g (stale composite kernel?)", d, wantShift)
	}
}

// BenchmarkRenderMix is the composite-vs-naive A/B on the mixing phase
// alone (channel draw and noise synthesis excluded): the same pre-drawn jobs
// are mixed by the historical per-tap loop and by the composite-kernel
// convolution. Composite kernels are invalidated every iteration so the
// measurement includes the per-render kernel fold, exactly as Render pays
// it. The win grows with tap count: at 2 transducer taps the direct path +
// smearing + 3 office reflections cost 6×48 madds/sample naively vs one
// ~⩽100-coefficient folded kernel; at 24 taps the naive cost quadruples
// while the composite kernel barely widens. Record results in
// BENCH_render.json (run with -count≥3, interleaved).
func BenchmarkRenderMix(b *testing.B) {
	for _, taps := range []int{2, 8, 24} {
		w := buildEnvScene(b, 90, taps, acoustic.EnvOffice)
		jobs, err := w.drawJobs()
		if err != nil {
			b.Fatal(err)
		}
		for _, engine := range []string{"naive", "composite"} {
			b.Run(fmt.Sprintf("engine=%s/taps=%d", engine, taps), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for ji := range jobs {
						if engine == "naive" {
							w.mixNaiveFloat(&jobs[ji])
						} else {
							for _, p := range jobs[ji].paths {
								p.InvalidateKernel()
							}
							w.mixFloat(&jobs[ji])
						}
					}
				}
			})
		}
	}
}

// BenchmarkRenderNaive is RenderNaive end-to-end (draw + per-tap mix), the
// A/B partner of BenchmarkRender in perf_test.go.
func BenchmarkRenderNaive(b *testing.B) {
	w := buildScene(b, 34, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.RenderNaive(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRenderDeterministicAcrossGOMAXPROCS extends the worker-count
// determinism test to the full acceptance sweep: the composite-kernel render
// must be bit-identical at GOMAXPROCS 1, 2, 4, and 8 (kernels are built and
// applied entirely inside each device's goroutine; the draw phase stays
// sequential).
func TestRenderDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	render := func() map[string][]int16 {
		w := buildEnvScene(t, 73, 8, acoustic.EnvRestaurant)
		recs, err := w.Render()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]int16, len(recs))
		for d, buf := range recs {
			out[d.Name()] = buf.Samples
		}
		return out
	}

	runtime.GOMAXPROCS(1)
	want := render()
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got := render()
		for name, w := range want {
			g := got[name]
			if len(g) != len(w) {
				t.Fatalf("GOMAXPROCS=%d %s: length %d != %d", procs, name, len(g), len(w))
			}
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("GOMAXPROCS=%d %s: sample %d differs (%d != %d)", procs, name, i, g[i], w[i])
				}
			}
		}
	}
}

// mixNaive is the historical per-tap mixing loop: one gain-folded
// windowed-sinc mix per impulse-response tap. Kept as the composite kernel's
// test oracle (the CrossCorrelateNaive pattern): it consumes the same
// pre-drawn renderJob, so a seeded scene rendered through RenderNaive is the
// tap-by-tap ground truth the composite path must match to ~1e-9 relative.
func (w *World) mixNaive(job *renderJob) *audio.Buffer {
	return &audio.Buffer{SampleRate: job.dst.SampleRate(), Samples: audio.FromFloat(w.mixNaiveFloat(job))}
}

// mixNaiveFloat is mixNaive before int16 quantization (see mixFloat).
func (w *World) mixNaiveFloat(job *renderJob) []float64 {
	acc := make([]float64, job.n)
	var allpass acoustic.AllpassWorkspace

	for pi, play := range w.plays {
		path := job.paths[pi]
		dispersed := allpass.Apply(play.samples, path.AllpassCoeffs)
		for _, tap := range path.Taps {
			delaySec := (path.BaseDelaySamples + tap.DelaySamples) / w.cfg.SampleRate
			arrival := job.dst.Clock().SampleAt(play.startSec + delaySec)
			audio.MixFloatSincGain(acc, dispersed, arrival, tap.Gain)
		}
	}

	for i := range acc {
		acc[i] += job.noise[i]
	}
	return acc
}

// RenderNaive is Render with the historical per-tap mixing loop instead of
// the composite-kernel convolution. It exists as a test oracle and A/B
// benchmark baseline only — it draws from the scene RNG exactly like Render
// (so two worlds built with equal seeds, one rendered each way, see
// identical channel realizations) and runs the mixing phase sequentially.
func (w *World) RenderNaive() (map[*device.Device]*audio.Buffer, error) {
	jobs, err := w.drawJobs()
	if err != nil {
		return nil, err
	}
	out := make(map[*device.Device]*audio.Buffer, len(w.devices))
	for di := range jobs {
		out[jobs[di].dst] = w.mixNaive(&jobs[di])
	}
	return out, nil
}
