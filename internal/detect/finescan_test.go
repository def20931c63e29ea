package detect

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/acoustic-auth/piano/internal/audio"
	"github.com/acoustic-auth/piano/internal/dsp"
	"github.com/acoustic-auth/piano/internal/sigref"
)

// fineStreams asserts the configuration's fine step sits below the
// sliding-DFT break-even, i.e. the fine scan streams.
func fineStreams(tb testing.TB, cfg Config) {
	tb.Helper()
	p := sigref.DefaultParams()
	lo, hi := CandidateBand(p, cfg.Theta)
	if !dsp.StreamingWins(p.Length, hi-lo, cfg.FineStep) {
		tb.Fatalf("fine step %d should stream for band [%d, %d)", cfg.FineStep, lo, hi)
	}
}

// TestDefaultFineStepStreams pins the premise of the streaming fine scan:
// the paper's default fine step of 10 sits below the measured break-even
// (hop ≲15 at the 909-bin candidate band), so the default configuration
// exercises the streamed + exact-at-peak path.
func TestDefaultFineStepStreams(t *testing.T) {
	fineStreams(t, DefaultConfig())
}

// TestFineScanStreamedBitIdentical is the exactness-contract sweep: on the
// default configuration (exact coarse scan, streamed fine scan) every
// reported field must be bit-identical to the all-exact engine
// (disableStream), across seeds, GOMAXPROCS 1/2/4/8, and both recording
// representations (float64 and raw int16 PCM).
func TestFineScanStreamedBitIdentical(t *testing.T) {
	fineStreams(t, DefaultConfig())
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, seed := range []int64{21, 301, 777} {
		rec, s1, s2 := benchRecording(t, seed, 52920)
		pcm := audio.FromFloat(rec)
		recQ := audio.ToFloat(pcm) // quantized float recording == PCM content

		streamed, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		exact, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		exact.disableStream = true

		runtime.GOMAXPROCS(1)
		want, err := detectFloat(exact, rec, s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		wantQ, err := detectFloat(exact, recQ, s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		if !want[0].Found || !want[1].Found {
			t.Fatalf("seed %d: planted signals not found: %+v", seed, want)
		}

		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := detectFloat(streamed, rec, s1, s2)
			if err != nil {
				t.Fatal(err)
			}
			gotPCM, err := detectPCM(streamed, pcm, s1, s2)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d GOMAXPROCS %d signal %d: streamed %+v != all-exact %+v", seed, procs, i, got[i], want[i])
				}
				if gotPCM[i] != wantQ[i] {
					t.Fatalf("seed %d GOMAXPROCS %d signal %d: PCM %+v != all-exact-on-quantized %+v", seed, procs, i, gotPCM[i], wantQ[i])
				}
			}
		}
	}
}

// nearTieConfig widens the coarse step so one fine span (±CoarseStep around
// the coarse argmax) can hold two non-overlapping full windows — the
// adversarial geometry for the exact-at-peak re-check.
func nearTieConfig() Config {
	cfg := DefaultConfig()
	cfg.CoarseStep = 5000
	cfg.FineStep = 10
	return cfg
}

// nearTieRecording plants the SAME 4096-sample waveform (signal plus a
// baked-in noise floor) at two fine-grid locations inside one fine span, so
// the two aligned fine windows read bit-identical samples and their exact
// scores tie EXACTLY — the hardest case for the streamed fine scan, which
// must re-check both and let the in-order exact reduction pick the earlier,
// exactly as the all-exact scan does. perturb nudges the second copy's
// first sample by one small absolute step, turning the exact tie into a
// near-tie well inside the drift margin.
func nearTieRecording(tb testing.TB, seed int64, perturb float64) ([]float64, *sigref.Signal, int, int) {
	tb.Helper()
	p := sigref.DefaultParams()
	rng := rand.New(rand.NewSource(seed))
	sig, err := sigref.New(p, rng)
	if err != nil {
		tb.Fatal(err)
	}
	w := make([]float64, p.Length)
	for i, v := range sig.Samples() {
		w[i] = 0.5*v + 20*rng.NormFloat64()
	}
	const at1, at2 = 2000, 6800 // both multiples of FineStep, gap > 0
	rec := make([]float64, 16384)
	copy(rec[at1:], w)
	copy(rec[at2:], w)
	rec[at2] += perturb
	return rec, sig, at1, at2
}

// TestFineScanExactAtPeakNearTie is the adversarial exactness fixture: two
// bit-identical (or drift-margin-close) windows inside one fine span. The
// streamed fine scan must surface both as re-check candidates and report
// exactly what the all-exact scan reports — same location (the earlier
// window on an exact tie) and bit-equal power — at every GOMAXPROCS.
func TestFineScanExactAtPeakNearTie(t *testing.T) {
	cfg := nearTieConfig()
	fineStreams(t, cfg)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, tc := range []struct {
		name    string
		perturb float64
	}{
		{"exact-tie", 0},
		{"near-tie", 1e-6}, // score shift ~1e-16 relative: far inside the 1e-9 margin
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{5, 91, 1234} {
				rec, sig, at1, at2 := nearTieRecording(t, seed, tc.perturb)

				streamed, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				exact, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				exact.disableStream = true

				// Premise 1: the two planted windows score identically (or
				// within the drift margin) and finitely.
				p1, err := streamed.NormPower(rec[at1:at1+len(sig.Samples())], sig)
				if err != nil {
					t.Fatal(err)
				}
				p2, err := streamed.NormPower(rec[at2:at2+len(sig.Samples())], sig)
				if err != nil {
					t.Fatal(err)
				}
				if math.IsInf(p1, -1) || math.IsInf(p2, -1) {
					t.Fatalf("seed %d: planted windows rejected: %g %g", seed, p1, p2)
				}
				if tc.perturb == 0 && p1 != p2 {
					t.Fatalf("seed %d: identical windows score differently: %g != %g", seed, p1, p2)
				}
				if d := math.Abs(p1-p2) / math.Abs(p1); d > 1e-9 {
					t.Fatalf("seed %d: windows not a near-tie: relative gap %g", seed, d)
				}

				// Premise 2: the coarse argmax's fine span covers BOTH
				// copies — reproduce the coarse scan via NormPower (which is
				// bit-identical to scan scores).
				limit := len(rec) - len(sig.Samples())
				bestC, bestP := -1, math.Inf(-1)
				for i := 0; i <= limit; i += cfg.CoarseStep {
					pw, err := streamed.NormPower(rec[i:i+len(sig.Samples())], sig)
					if err != nil {
						t.Fatal(err)
					}
					if pw > bestP {
						bestP, bestC = pw, i
					}
				}
				if lo, hi := bestC-cfg.CoarseStep, bestC+cfg.CoarseStep; at1 < lo || at2 > hi {
					t.Fatalf("seed %d: fine span [%d, %d] around coarse argmax %d misses a planted copy (%d, %d) — fixture needs retuning", seed, lo, hi, bestC, at1, at2)
				}

				runtime.GOMAXPROCS(1)
				want, err := detectOne(exact, rec, sig)
				if err != nil {
					t.Fatal(err)
				}
				if !want.Found {
					t.Fatalf("seed %d: all-exact scan lost the signal: %+v", seed, want)
				}
				if tc.perturb == 0 && want.Location != at1 {
					t.Fatalf("seed %d: all-exact tie-break picked %d, want earliest copy %d", seed, want.Location, at1)
				}

				for _, procs := range []int{1, 2, 4, 8} {
					runtime.GOMAXPROCS(procs)
					got, err := detectOne(streamed, rec, sig)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("seed %d GOMAXPROCS %d: streamed %+v != all-exact %+v", seed, procs, got, want)
					}
				}
			}
		})
	}
}

// TestNormPowerStreamedThresholdZones pins the three-zone classification
// that makes the exact-at-peak proof sound: a band power that straddles the
// α (or β) threshold within the drift margin must mark the window AMBIGUOUS
// (gross = +Inf ⇒ interval (−Inf, +Inf): never tightens the re-check bound,
// always re-checked), not contribute a confident finite score — otherwise a
// threshold-straddling window whose exact score is −Inf could inflate the
// candidate bound and evict the true exact argmax from the re-check set.
func TestNormPowerStreamedThresholdZones(t *testing.T) {
	p := sigref.DefaultParams()
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sig, err := sigref.NewFromIndices(p, []int{0, 15}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := det.newSigSpec(sig)
	theta := det.Config().Theta
	mkSpec := func(set map[int]float64) []float64 {
		spec := make([]float64, p.Length)
		for bin, pw := range set {
			spec[bin] = pw // all band power on the center bin
		}
		return spec
	}
	binA, binB := ss.chosenBins[0], ss.chosenBins[1]
	foreign := ss.foreignBins[0]
	hot := 1000 * ss.alphaFloor

	cases := []struct {
		name      string
		spec      []float64
		wantInf   bool // certain fail: (-Inf, 0)
		wantAmbig bool // ambiguous: gross = +Inf
	}{
		{"alpha-certain-pass", mkSpec(map[int]float64{binA: hot, binB: hot}), false, false},
		{"alpha-certain-fail", mkSpec(map[int]float64{binA: hot, binB: ss.alphaFloor * (1 - 3e-9)}), true, false},
		{"alpha-straddle-at-floor", mkSpec(map[int]float64{binA: hot, binB: ss.alphaFloor}), false, true},
		{"alpha-straddle-just-above", mkSpec(map[int]float64{binA: hot, binB: ss.alphaFloor * (1 + 5e-10)}), false, true},
		{"beta-certain-fail", mkSpec(map[int]float64{binA: hot, binB: hot, foreign: ss.betaCeiling * (1 + 3e-9)}), true, false},
		{"beta-straddle-at-ceiling", mkSpec(map[int]float64{binA: hot, binB: hot, foreign: ss.betaCeiling}), false, true},
		{"beta-certain-pass", mkSpec(map[int]float64{binA: hot, binB: hot, foreign: ss.betaCeiling / 2}), false, false},
	}
	for _, tc := range cases {
		score, gross := ss.normPowerStreamed(tc.spec, theta)
		switch {
		case tc.wantInf:
			if !math.IsInf(score, -1) || gross != 0 {
				t.Errorf("%s: got (%g, %g), want (-Inf, 0)", tc.name, score, gross)
			}
		case tc.wantAmbig:
			if math.IsInf(score, -1) || !math.IsInf(gross, 1) {
				t.Errorf("%s: got (%g, %g), want (finite, +Inf)", tc.name, score, gross)
			}
		default:
			if math.IsInf(score, -1) || math.IsInf(gross, 1) {
				t.Errorf("%s: got (%g, %g), want finite confident pair", tc.name, score, gross)
			}
		}
		// The strict check used by the exact re-check must agree with the
		// certain zones and resolve the ambiguous ones.
		exact := ss.normPower(tc.spec, theta)
		if tc.wantInf && !math.IsInf(exact, -1) {
			t.Errorf("%s: certain-fail window passes the strict check (%g)", tc.name, exact)
		}
		if !tc.wantInf && !tc.wantAmbig && math.IsInf(exact, -1) {
			t.Errorf("%s: certain-pass window fails the strict check", tc.name)
		}
	}
}

// TestDetectAllPCMMatchesFloat: scanning raw PCM must be bit-identical to
// scanning the converted recording, and validation errors carry over.
func TestDetectAllPCMMatchesFloat(t *testing.T) {
	rec, s1, s2 := benchRecording(t, 55, 30000)
	pcm := audio.FromFloat(rec)
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := detectFloat(det, audio.ToFloat(pcm), s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := detectPCM(det, pcm, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("signal %d: PCM %+v != float %+v", i, got[i], want[i])
		}
	}
	if !got[0].Found || !got[1].Found {
		t.Fatalf("planted signals not found via PCM: %+v", got)
	}
	if _, err := detectPCM(det, make([]int16, 100), s1); err == nil {
		t.Fatal("short PCM recording accepted")
	}
	if _, err := detectPCM(det, pcm); err == nil {
		t.Fatal("no signals accepted")
	}
}

// TestDetectAllPCMSteadyStateAllocs extends the zero-alloc contract to the
// PCM ingestion path: once pools are warm, a fed-once PCM stream's
// (FedStream + Results) allocations are per-call, not per-window — and in
// particular there is no hidden recording-sized buffer.
func TestDetectAllPCMSteadyStateAllocs(t *testing.T) {
	recShortF, a1, a2 := benchRecording(t, 56, 26460)
	recLongF, b1, b2 := benchRecording(t, 57, 52920)
	recShort, recLong := audio.FromFloat(recShortF), audio.FromFloat(recLongF)
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detectPCM(det, recLong, b1, b2); err != nil {
		t.Fatal(err)
	}
	measure := func(rec []int16, s1, s2 *sigref.Signal) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := detectPCM(det, rec, s1, s2); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(recShort, a1, a2)
	long := measure(recLong, b1, b2)
	const fixedBudget = 80
	if long > fixedBudget {
		t.Fatalf("fed-once PCM detection allocates %.0f per call, budget %d", long, fixedBudget)
	}
	if long > short+8 {
		t.Fatalf("allocations scale with windows: %.0f (short) → %.0f (long)", short, long)
	}
	// A recording-sized float64 copy alone would be ~413 KiB; make the
	// contract explicit in bytes as well — but only without the race
	// detector, whose instrumentation inflates TotalAlloc by a
	// nondeterministic ~100 KB per call.
	if raceEnabled {
		return
	}
	// Measure on one P, as testing.AllocsPerRun does for the counts above:
	// with more, the call's goroutine can migrate off the P whose private
	// sync.Pool slot holds the warm workspace, miss it, and build a fresh
	// ~120 KiB one — a pool miss, not a recording copy.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := detectPCM(det, recLong, b1, b2); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("one warm fed-once PCM detection allocated %d bytes — a recording copy crept back in", grew)
	}
}

// TestNormPowerPlannedParity pins the satellite contract for NormPower's
// switch to the planned band-restricted spectrum: values agree with the
// legacy one-shot dsp.PowerSpectrum scoring to 1e-9 relative (the planned
// FFT rounds a few ULPs differently), and sanity-check rejections agree
// exactly.
func TestNormPowerPlannedParity(t *testing.T) {
	p := sigref.DefaultParams()
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec, s1, s2 := benchRecording(t, 59, 30000)
	windows := [][]float64{
		s1.Samples(),
		s2.Samples(),
		rec[5000 : 5000+p.Length],
		rec[18000 : 18000+p.Length],
		make([]float64, p.Length), // silence: -Inf on both paths
	}
	for wi, win := range windows {
		for _, sig := range []*sigref.Signal{s1, s2} {
			got, err := det.NormPower(win, sig)
			if err != nil {
				t.Fatal(err)
			}
			legacySpec, err := dsp.PowerSpectrum(win)
			if err != nil {
				t.Fatal(err)
			}
			want := det.newSigSpec(sig).normPower(legacySpec, det.Config().Theta)
			switch {
			case math.IsInf(want, -1) || math.IsInf(got, -1):
				if got != want {
					t.Fatalf("window %d: rejection disagrees: planned %g, legacy %g", wi, got, want)
				}
			case math.Abs(got-want) > 1e-9*math.Abs(want):
				t.Fatalf("window %d: planned %g vs legacy %g (diff %g)", wi, got, want, got-want)
			}
		}
	}
}
