package detect

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/acoustic-auth/piano/internal/dsp"
	"github.com/acoustic-auth/piano/internal/sigref"
)

// streamConfig is a high-resolution scan configuration whose coarse step
// sits below the sliding-DFT break-even, so the coarse scan streams.
func streamConfig(t testing.TB) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CoarseStep = 8
	cfg.FineStep = 2
	p := sigref.DefaultParams()
	lo, hi := CandidateBand(p, cfg.Theta)
	if !dsp.StreamingWins(p.Length, hi-lo, cfg.CoarseStep) {
		t.Fatalf("coarse step %d should stream for band [%d, %d)", cfg.CoarseStep, lo, hi)
	}
	return cfg
}

// TestCandidateBandCoversDefaults: the derived band at the paper's
// parameters is the ~940-bin canonical range the mirrored 25–35 kHz
// candidates fold into.
func TestCandidateBandCoversDefaults(t *testing.T) {
	p := sigref.DefaultParams()
	lo, hi := CandidateBand(p, DefaultConfig().Theta)
	if lo >= hi || lo < 0 || hi > p.Length/2+1 {
		t.Fatalf("nonsense band [%d, %d)", lo, hi)
	}
	// The lowest candidate (25.17 kHz, the center of the first of 30 bins
	// over [25, 35] kHz) aliases to bin 2337 → canonical 1759; the highest
	// (34.83 kHz) to bin 3235 → canonical 861. With ±θ=5 and the
	// half-open upper end: [856, 1765), 909 of 2048 bins (~44%).
	if lo != 856 || hi != 1765 {
		t.Fatalf("derived band [%d, %d), want [856, 1765)", lo, hi)
	}
	// Every bin Algorithm 2 reads for any signal from these params must
	// fold inside the band.
	rng := rand.New(rand.NewSource(3)) // #nosec: deterministic test
	sig, err := sigref.New(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ss := det.newSigSpec(sig)
	for _, bins := range [][]int{ss.chosenBins, ss.foreignBins} {
		for _, b := range bins {
			for r := b - det.cfg.Theta; r <= b+det.cfg.Theta; r++ {
				if r < 0 || r > p.Length-1 {
					continue
				}
				m := r
				if m > p.Length/2 {
					m = p.Length - m
				}
				if m < lo || m >= hi {
					t.Fatalf("read bin %d (canonical %d) outside derived band [%d, %d)", r, m, lo, hi)
				}
			}
		}
	}
}

// TestCandidateBandConfigValidation is the satellite regression test: a
// configured candidate band outside [0, winLen/2) or inverted must be
// rejected with a descriptive error instead of silently scoring an empty
// (or partially stale) band.
func TestCandidateBandConfigValidation(t *testing.T) {
	// Construction-time checks (window length unknown yet).
	for _, tc := range []struct {
		lo, hi int
		msg    string
	}{
		{-3, 100, "negative"},
		{100, 100, "inverted"},
		{200, 100, "inverted"},
	} {
		cfg := DefaultConfig()
		cfg.CandidateBandLo, cfg.CandidateBandHi = tc.lo, tc.hi
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("band [%d, %d): got err %v, want %q", tc.lo, tc.hi, err, tc.msg)
		}
	}

	// Scan-time checks (window length known).
	p := sigref.DefaultParams()
	rng := rand.New(rand.NewSource(5))
	sig, err := sigref.New(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec := plantSignal(sig, 30000, 9000, 0.5)

	beyond := DefaultConfig()
	beyond.CandidateBandLo, beyond.CandidateBandHi = 100, p.Length/2+7
	det, err := New(beyond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detectFloat(det, rec, sig); err == nil || !strings.Contains(err.Error(), "outside the canonical spectrum [0, 2048]") {
		t.Fatalf("band past the canonical spectrum accepted: %v", err)
	}

	narrow := DefaultConfig()
	narrow.CandidateBandLo, narrow.CandidateBandHi = 900, 1000 // misses the footprint
	det, err = New(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detectFloat(det, rec, sig); err == nil || !strings.Contains(err.Error(), "does not cover") {
		t.Fatalf("non-covering band accepted: %v", err)
	}

	// A covering explicit band is accepted and changes nothing: the extra
	// computed bins are never read, so results are bit-identical.
	derived, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := detectFloat(derived, rec, sig)
	if err != nil {
		t.Fatal(err)
	}
	wide := DefaultConfig()
	wide.CandidateBandLo, wide.CandidateBandHi = 800, 1900
	det, err = New(wide)
	if err != nil {
		t.Fatal(err)
	}
	got, err := detectFloat(det, rec, sig)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("explicit covering band changed the result: %+v != %+v", got[0], want[0])
	}
}

// TestStreamingCoarseScanFindsSignals: with a sub-break-even coarse step
// the scan streams, still locates the planted signals at the exact sample,
// and its powers stay within the engine's 1e-9 drift budget of the exact
// per-window-FFT scan.
func TestStreamingCoarseScanFindsSignals(t *testing.T) {
	cfg := streamConfig(t)
	rec, s1, s2 := benchRecording(t, 77, 30000)

	streaming, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact.disableStream = true

	got, err := detectFloat(streaming, rec, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := detectFloat(exact, rec, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !want[i].Found || !got[i].Found {
			t.Fatalf("signal %d not found: stream %+v exact %+v", i, got[i], want[i])
		}
		// The fine scan is exact in both engines and the coarse drift is
		// ≤1e-9 relative, so the located sample must agree.
		if got[i].Location != want[i].Location {
			t.Fatalf("signal %d: streaming location %d != exact %d", i, got[i].Location, want[i].Location)
		}
		if diff := math.Abs(got[i].Power - want[i].Power); diff > 1e-9*math.Abs(want[i].Power) {
			t.Fatalf("signal %d: streaming power %g drifts %g from exact %g", i, got[i].Power, diff, want[i].Power)
		}
	}
	// The planted locations (8820·30000/52920 scaled in benchRecording:
	// total/6 and total·3/5) are found to fine-step resolution.
	for i, at := range []int{30000 / 6, 30000 * 3 / 5} {
		if d := got[i].Location - at; d < -cfg.FineStep || d > cfg.FineStep {
			t.Fatalf("signal %d located at %d, planted at %d", i, got[i].Location, at)
		}
	}
}

// TestStreamingScanDeterministicAcrossGOMAXPROCS sweeps GOMAXPROCS: the
// range-claiming streaming coarse scan must produce
// bit-identical results no matter how many workers claim blocks — the
// fixed block grid, not the schedule, defines every score.
func TestStreamingScanDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := streamConfig(t)
	rec, s1, s2 := benchRecording(t, 78, 30000)

	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	base, err := detectFloat(det, rec, s1, s2)
	if err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{2, 4, 7} {
		runtime.GOMAXPROCS(procs)
		got, err := detectFloat(det, rec, s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("GOMAXPROCS=%d signal %d: %+v != single-worker %+v", procs, i, got[i], base[i])
			}
		}
	}
}

// TestStreamingSteadyStateAllocs: once pools are warm, the streaming scan
// — sliding state pinned in the pooled workspaces — allocates a fixed
// per-call amount, independent of the window count.
func TestStreamingSteadyStateAllocs(t *testing.T) {
	cfg := streamConfig(t)
	recShort, a1, a2 := benchRecording(t, 79, 16384)
	recLong, b1, b2 := benchRecording(t, 80, 32768)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detectFloat(det, recLong, b1, b2); err != nil {
		t.Fatal(err)
	}
	measure := func(rec []float64, s1, s2 *sigref.Signal) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := detectFloat(det, rec, s1, s2); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(recShort, a1, a2)
	long := measure(recLong, b1, b2)
	const fixedBudget = 80
	if long > fixedBudget {
		t.Fatalf("streaming DetectAll allocates %.0f per call, budget %d", long, fixedBudget)
	}
	if long > short+8 {
		t.Fatalf("allocations scale with windows: %.0f (short) → %.0f (long)", short, long)
	}
}

// TestPrewarm: a prewarmed detector performs its first scan without
// building plans or sliding state (observable as a low first-call
// allocation count), and Prewarm validates its inputs.
func TestPrewarm(t *testing.T) {
	p := sigref.DefaultParams()
	cfg := streamConfig(t)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Prewarm(p, 2); err != nil {
		t.Fatal(err)
	}
	rec, s1, s2 := benchRecording(t, 81, 16384)
	prev := runtime.GOMAXPROCS(1) // single worker: one pooled workspace suffices
	defer runtime.GOMAXPROCS(prev)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := detectFloat(det, rec, s1, s2); err != nil {
			t.Fatal(err)
		}
	})
	const fixedBudget = 80
	if allocs > fixedBudget {
		t.Fatalf("first post-Prewarm scan allocates %.0f, budget %d — prewarm missed scan state", allocs, fixedBudget)
	}

	bad := p
	bad.Length = 1000 // not a power of two
	if err := det.Prewarm(bad, 1); err == nil {
		t.Fatal("Prewarm accepted invalid params")
	}
}

// BenchmarkDetectAllStream measures the streaming coarse scan against the
// forced exact-FFT scan on the same high-resolution configuration
// (CoarseStep 8, ~3450 coarse windows over a 0.7 s recording). The gap is
// the sliding-DFT win; BENCH_stream.json records both.
func BenchmarkDetectAllStream(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CoarseStep = 8
	cfg.FineStep = 2
	rec, s1, s2 := benchRecording(b, 82, 32768)
	run := func(b *testing.B, det *Detector) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := detectFloat(det, rec, s1, s2)
			if err != nil {
				b.Fatal(err)
			}
			if !res[0].Found || !res[1].Found {
				b.Fatal("planted signals not found")
			}
		}
	}
	b.Run("sliding", func(b *testing.B) {
		det, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		run(b, det)
	})
	b.Run("exact-fft", func(b *testing.B) {
		det, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		det.disableStream = true
		run(b, det)
	})
}
