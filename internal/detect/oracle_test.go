package detect

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/acoustic-auth/piano/internal/audio"
	"github.com/acoustic-auth/piano/internal/sigref"
)

// oracleDetect is a slow, independent reference for Algorithm 1 built from
// NormPower one window at a time: the coarse grid 0, CoarseStep, … over the
// recording's window starts with a strict > argmax (the earliest window
// wins a tie), then the fine grid lo, lo+FineStep, … ≤ hi over the
// ±CoarseStep span around the coarse argmax clamped to [0, len−winLen],
// and finally the ε·R_S absent floor. It shares no scan, reduction, or
// fine-scan code with the engine — only Algorithm 2's single-window score.
func oracleDetect(t *testing.T, d *Detector, rec []float64, sig *sigref.Signal) Result {
	t.Helper()
	cfg := d.Config()
	n := sig.Params().Length
	limit := len(rec) - n
	score := func(i int) float64 {
		p, err := d.NormPower(rec[i:i+n], sig)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	best, at := math.Inf(-1), -1
	var res Result
	for i := 0; i <= limit; i += cfg.CoarseStep {
		if p := score(i); p > best {
			best, at = p, i
		}
		res.CoarseScanned++
	}
	res.WindowsScanned = res.CoarseScanned
	if at >= 0 {
		lo, hi := max(at-cfg.CoarseStep, 0), min(at+cfg.CoarseStep, limit)
		for i := lo; i <= hi; i += cfg.FineStep {
			if p := score(i); p > best {
				best, at = p, i
			}
			res.WindowsScanned++
		}
	}
	res.Power = best
	if at >= 0 && best >= cfg.Epsilon*sig.TotalRF() {
		res.Location, res.Found = at, true
	}
	return res
}

// addTones adds a sinusoid of the given amplitude at every candidate
// frequency the signal does NOT use, across the whole recording.
func addTones(rec []float64, sig *sigref.Signal, amp float64) {
	p := sig.Params()
	used := map[int]bool{}
	for _, i := range sig.Indices() {
		used[i] = true
	}
	for i, f := range p.Candidates() {
		if used[i] {
			continue
		}
		w := 2 * math.Pi * f / p.SampleRate
		for t := range rec {
			rec[t] += amp * math.Sin(w*float64(t))
		}
	}
}

// TestDetectAllMatchesOracle asserts whole-Result equality between the
// scan engine and the window-at-a-time oracle — both as float64 and as
// int16 PCM — on three regimes: a planted signal that is found, a
// recording where every window fails the α/β checks (⊥ with −Inf power),
// and a weak signal drowned by foreign-frequency tones that passes α/β
// but scores below the ε·R_S floor (⊥ with finite power).
func TestDetectAllMatchesOracle(t *testing.T) {
	p := sigref.DefaultParams()
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	type regime struct {
		name  string
		rec   []float64
		sig   *sigref.Signal
		found bool
		inf   bool // ⊥ because every window failed the sanity checks
	}
	var regimes []regime

	// Found: two planted signals in a faint noise floor, each detected.
	for seed := int64(31); seed < 34; seed++ {
		rec, s1, s2 := benchRecording(t, seed, 26460+int(seed)*777)
		regimes = append(regimes, regime{"found-first", rec, s1, true, false}, regime{"found-second", rec, s2, true, false})
	}

	rng := rand.New(rand.NewSource(35))
	sig, err := sigref.New(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	// All windows fail: silence carries no chosen-frequency power (α).
	regimes = append(regimes, regime{"all-fail-silence", make([]float64, 20000), sig, false, true})
	// All windows fail: the signal plus loud foreign tones trips β.
	loud := plantSignal(sig, 20000, 5000, 0.5)
	addTones(loud, sig, 0.2*p.FullScale/float64(sig.Count()))
	regimes = append(regimes, regime{"all-fail-foreign", loud, sig, false, true})

	// Below ε: the signal at ~1.2% of R_f per frequency clears α (1%),
	// and foreign tones at ~0.4% of R_f stay under β (0.5%) while
	// outweighing the chosen surplus, so the best score is finite but
	// below ε·R_S. Use a signal with few components so the foreign
	// candidates dominate.
	var weak *sigref.Signal
	for weak == nil || weak.Count() > p.NumCandidates/3 {
		if weak, err = sigref.New(p, rng); err != nil {
			t.Fatal(err)
		}
	}
	faint := plantSignal(weak, 20000, 7000, math.Sqrt(0.012))
	addTones(faint, weak, math.Sqrt(0.004)*p.FullScale/float64(weak.Count()))
	regimes = append(regimes, regime{"below-epsilon", faint, weak, false, false})

	for _, r := range regimes {
		want := oracleDetect(t, det, r.rec, r.sig)
		if want.Found != r.found || math.IsInf(want.Power, -1) != r.inf {
			t.Fatalf("%s: oracle %+v does not exercise the regime (found %v, −Inf power %v)", r.name, want, r.found, r.inf)
		}
		got, err := detectFloat(det, r.rec, r.sig)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Errorf("%s: engine %+v, oracle %+v", r.name, got[0], want)
		}
		pcm := audio.FromFloat(r.rec)
		want = oracleDetect(t, det, audio.ToFloat(pcm), r.sig)
		got, err = detectPCM(det, pcm, r.sig)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Errorf("%s (PCM): engine %+v, oracle %+v", r.name, got[0], want)
		}
	}
}

// detectFloat is DetectAll without cancellation checkpoints.
func detectFloat(d *Detector, rec []float64, sigs ...*sigref.Signal) ([]Result, error) {
	return d.DetectAll(context.Background(), rec, sigs...)
}

// detectOne locates a single signal in a complete float64 recording.
func detectOne(d *Detector, rec []float64, sig *sigref.Signal) (Result, error) {
	res, err := detectFloat(d, rec, sig)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// detectPCM scans a complete int16 recording as a stream fed once.
func detectPCM(d *Detector, pcm []int16, sigs ...*sigref.Signal) ([]Result, error) {
	st, err := d.FedStream(context.Background(), pcm, sigs...)
	if err != nil {
		return nil, err
	}
	res, _, err := st.Results(context.Background())
	return res, err
}

// NormPower is Algorithm 2 for a single window, the unit the package tests
// build their oracles from. It scores through the same pooled planned
// band-restricted spectrum as the scan engine, so a NormPower value is
// bit-identical to the score DetectAll computes for that window.
func (d *Detector) NormPower(window []float64, sig *sigref.Signal) (float64, error) {
	if sig == nil {
		return 0, errors.New("detect: nil signal")
	}
	if len(window) != sig.Params().Length {
		return 0, fmt.Errorf("detect: window length %d != signal length %d", len(window), sig.Params().Length)
	}
	band, err := d.cfg.scanBand(sig.Params())
	if err != nil {
		return 0, err
	}
	ws, err := d.getWorkspace(len(window))
	if err != nil {
		return 0, err
	}
	defer d.wsPool.Put(ws)
	if err := ws.plan.PowerSpectrumBandInto(ws.spec, window, ws.scratch, band.lo, band.hi); err != nil {
		return 0, err
	}
	return d.newSigSpec(sig).normPower(ws.spec, d.cfg.Theta), nil
}
