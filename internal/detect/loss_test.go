package detect

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/acoustic-auth/piano/internal/audio"
	"github.com/acoustic-auth/piano/internal/dsp"
	"github.com/acoustic-auth/piano/internal/sigref"
)

// lossFixture builds the two-signal recording of the early-prefix test:
// s1 at 3000, s2 at 9000, 60000 samples — both found by the batch scan.
func lossFixture(t *testing.T) (*Detector, []int16, []*sigref.Signal, []Result) {
	t.Helper()
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
	const total = 60000
	recF := make([]float64, total)
	for i, v := range s1.Samples() {
		recF[3000+i] += 0.5 * v
	}
	for i, v := range s2.Samples() {
		recF[9000+i] += 0.4 * v
	}
	pcm := audio.FromFloat(recF)
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := detectPCM(det, pcm, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if !want[0].Found || !want[1].Found {
		t.Fatalf("fixture signals not found: %+v", want)
	}
	return det, pcm, []*sigref.Signal{s1, s2}, want
}

// feedWithGap streams pcm with the span [gapLo, gapLo+gapN) declared lost
// and returns the stream plus the Results outcome.
func feedWithGap(t *testing.T, det *Detector, pcm []int16, sigs []*sigref.Signal, gapLo, gapN int) (*Stream, []Result, error) {
	t.Helper()
	st, err := det.NewStream(len(pcm), sigs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Feed(nil, pcm[:gapLo]); err != nil {
		t.Fatal(err)
	}
	if err := st.FeedLost(nil, gapN); err != nil {
		return st, nil, err
	}
	if err := st.Feed(nil, pcm[gapLo+gapN:]); err != nil {
		t.Fatal(err)
	}
	res, need, err := st.Results(nil)
	if err != nil {
		return st, nil, err
	}
	if need != 0 {
		t.Fatalf("full lossy feed still needs %d samples", need)
	}
	return st, res, nil
}

// TestStreamLossGapEdgeCases is the gap edge-case table: gaps starting and
// ending exactly on hop-grid window edges, a 1-sample gap, and a gap
// inside the fine-scan re-check span. Each produces its documented
// deterministic outcome — window exclusion per dsp.HopGrid arithmetic
// when the peak band survives, typed ErrInsufficientAudio when the
// fine-scan span is tainted — identically at GOMAXPROCS 1, 2, 4, and 8.
func TestStreamLossGapEdgeCases(t *testing.T) {
	det, pcm, sigs, want := lossFixture(t)
	winLen := sigs[0].Params().Length
	step := det.Config().CoarseStep
	grid := dsp.HopGrid{Lo: 0, Step: step, WinLen: winLen, Count: (len(pcm)-winLen)/step + 1, Block: 1}

	cases := []struct {
		name         string
		gapLo, gapN  int
		insufficient bool // expect ErrInsufficientAudio instead of a result
	}{
		// Gap starting exactly on a grid window edge, far from both
		// signals and fine spans: the overlapped windows are excluded,
		// the peak survives, the decision equals the clean-feed decision.
		{name: "window-edge-start", gapLo: grid.WindowStart(20), gapN: 500},
		// Gap ending exactly on a window-completion edge (NeedFor).
		{name: "window-edge-end", gapLo: grid.NeedFor(20) - 500, gapN: 500},
		// The minimal gap: one sample still excludes every window whose
		// span contains it.
		{name: "one-sample", gapLo: 20001, gapN: 1},
		// Gap inside s2's fine-scan re-check span (argmax 9000 ±
		// CoarseStep plus one window = [8000, 14410)): the exact-at-peak
		// re-check would score fabricated zeros, so the stream refuses.
		{name: "fine-span", gapLo: 13500, gapN: 100, insufficient: true},
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range cases {
		wantW0, wantW1 := grid.WindowsOverlapping(tc.gapLo, tc.gapLo+tc.gapN)
		var baseRes []Result
		var baseErr error
		for pi, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 2; rep++ {
				st, res, err := feedWithGap(t, det, pcm, sigs, tc.gapLo, tc.gapN)
				if tc.insufficient {
					if !errors.Is(err, ErrInsufficientAudio) {
						t.Fatalf("%s procs=%d: got res=%v err=%v, want ErrInsufficientAudio", tc.name, procs, res, err)
					}
				} else {
					if err != nil {
						t.Fatalf("%s procs=%d: %v", tc.name, procs, err)
					}
					samples, windows := st.Loss()
					if samples != tc.gapN || windows != wantW1-wantW0 {
						t.Fatalf("%s procs=%d: Loss()=(%d, %d), want (%d, %d)",
							tc.name, procs, samples, windows, tc.gapN, wantW1-wantW0)
					}
					// Far-from-peak gaps must not perturb the decision.
					for i := range want {
						if res[i].Found != want[i].Found || res[i].Location != want[i].Location ||
							math.Float64bits(res[i].Power) != math.Float64bits(want[i].Power) {
							t.Fatalf("%s procs=%d signal %d: lossy %+v != batch %+v", tc.name, procs, i, res[i], want[i])
						}
					}
				}
				if pi == 0 && rep == 0 {
					baseRes, baseErr = res, err
					continue
				}
				// Identical outcome across GOMAXPROCS and repeats.
				if (err == nil) != (baseErr == nil) {
					t.Fatalf("%s procs=%d: err %v diverges from baseline %v", tc.name, procs, err, baseErr)
				}
				if err != nil && err.Error() != baseErr.Error() {
					t.Fatalf("%s procs=%d: error %q != baseline %q", tc.name, procs, err, baseErr)
				}
				for i := range baseRes {
					if math.Float64bits(res[i].Power) != math.Float64bits(baseRes[i].Power) || res[i] != baseRes[i] {
						t.Fatalf("%s procs=%d signal %d: %+v != baseline %+v", tc.name, procs, i, res[i], baseRes[i])
					}
				}
			}
		}
	}
}

// TestStreamLossCeiling: loss past MaxLossFraction refuses typed at
// FeedLost time and stays refused at Results — never a decision.
func TestStreamLossCeiling(t *testing.T) {
	det, pcm, sigs, _ := lossFixture(t)
	st, err := det.NewStream(len(pcm), sigs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.FeedLost(nil, -1); err == nil {
		t.Error("negative lost span accepted")
	}
	// Default ceiling: 25% of 60000 = 15000 samples.
	if err := st.FeedLost(nil, 15000); err != nil {
		t.Fatalf("loss at the ceiling refused early: %v", err)
	}
	if err := st.FeedLost(nil, 1); !errors.Is(err, ErrInsufficientAudio) {
		t.Fatalf("loss past the ceiling: got %v", err)
	}
	if err := st.Feed(nil, pcm[15001:]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Results(nil); !errors.Is(err, ErrInsufficientAudio) {
		t.Fatalf("Results past the ceiling: got %v", err)
	}
}

// TestStreamLossAbsentRefuses: a recording whose surviving windows hold no
// signal cannot report ⊥ while windows are lost — the signal might sit in
// the audio that never arrived.
func TestStreamLossAbsentRefuses(t *testing.T) {
	p := sigref.DefaultParams()
	sig, err := sigref.New(p, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pcm := make([]int16, 20000)
	st, err := det.NewStream(len(pcm), sig)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Feed(nil, pcm[:10000]); err != nil {
		t.Fatal(err)
	}
	if err := st.FeedLost(nil, 500); err != nil {
		t.Fatal(err)
	}
	if err := st.Feed(nil, pcm[10500:]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Results(nil); !errors.Is(err, ErrInsufficientAudio) {
		t.Fatalf("⊥ under loss: got %v, want ErrInsufficientAudio", err)
	}
}

// TestStreamZeroLossBitIdentical: a framed-clean stream (Feed only, no
// FeedLost) is byte-identical to batch — the loss machinery must cost
// nothing when unused.
func TestStreamZeroLossBitIdentical(t *testing.T) {
	det, pcm, sigs, want := lossFixture(t)
	st, err := det.NewStream(len(pcm), sigs...)
	if err != nil {
		t.Fatal(err)
	}
	got := feedChunks(t, st, pcm, 881)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("signal %d: stream %+v != batch %+v", i, got[i], want[i])
		}
	}
	if s, w := st.Loss(); s != 0 || w != 0 {
		t.Fatalf("clean feed reports loss (%d, %d)", s, w)
	}
}
