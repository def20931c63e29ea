package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/attack"
	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/detect"
	"github.com/acoustic-auth/piano/internal/device"
	"github.com/acoustic-auth/piano/internal/dsp"
	"github.com/acoustic-auth/piano/internal/sigref"
	"github.com/acoustic-auth/piano/internal/stats"
	"github.com/acoustic-auth/piano/internal/world"
)

// AblationResult is a generic labeled series for the design-choice benches;
// each RunAblation* comment names the design choice it measures.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Config string
	Value  float64
	Unit   string
	Note   string
}

// FprintAblation renders one ablation.
func FprintAblation(w io.Writer, res *AblationResult) {
	fmt.Fprintf(w, "Ablation: %s\n", res.Title)
	for _, r := range res.Rows {
		note := ""
		if r.Note != "" {
			note = "  — " + r.Note
		}
		fmt.Fprintf(w, "  %-28s %10.2f %s%s\n", r.Config, r.Value, r.Unit, note)
	}
}

// playThroughChannel renders one play of the given samples through an
// office scene at distM and returns the receiving device's recording plus
// the true arrival sample index.
func playThroughChannel(samples []float64, distM float64, rng *rand.Rand) ([]float64, float64, error) {
	wcfg := world.DefaultConfig()
	wcfg.Environment = acoustic.EnvOffice
	wcfg.DurationSec = 0.8
	w, err := world.New(wcfg, rng)
	if err != nil {
		return nil, 0, err
	}
	src, err := device.New(device.Config{Name: "src", Position: [2]float64{0, 0}, SampleRate: 44100})
	if err != nil {
		return nil, 0, err
	}
	dst, err := device.New(device.Config{Name: "dst", Position: [2]float64{distM, 0}, SampleRate: 44100})
	if err != nil {
		return nil, 0, err
	}
	if err := w.AddDevice(src); err != nil {
		return nil, 0, err
	}
	if err := w.AddDevice(dst); err != nil {
		return nil, 0, err
	}
	const playAt = 0.25
	if err := w.SchedulePlay(src, samples, playAt); err != nil {
		return nil, 0, err
	}
	recs, err := w.Render()
	if err != nil {
		return nil, 0, err
	}
	arrival := (playAt + distM/acoustic.SpeedOfSoundMPS) * 44100
	return recs[dst].Float(), arrival, nil
}

// RunAblationRandomizationDomain compares the paper's frequency-domain
// randomized signals (detected by Algorithm 1) against the §IV-B strawman
// of time-domain random samples (detectable only by cross-correlation),
// measuring location error through the noisy street channel at 2 m, plus
// the fraction of signal power inside the audible band — the time-domain
// strawman is loudly audible, which alone disqualifies it for a system
// designed around inaudible ranging.
func RunAblationRandomizationDomain(opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed + 61))
	p := sigref.DefaultParams()
	det, err := detect.New(detect.DefaultConfig())
	if err != nil {
		return nil, err
	}

	plan, err := dsp.SharedFFTPlan(p.Length)
	if err != nil {
		return nil, err
	}
	spec, scratch := make([]float64, p.Length), plan.NewScratch()
	audibleFraction := func(x []float64) float64 {
		if err := plan.PowerSpectrumInto(spec, x[:p.Length], scratch); err != nil {
			return 0
		}
		cut := dsp.BinIndex(16000, p.SampleRate, p.Length)
		var below, total float64
		for k := 1; k <= p.Length/2; k++ {
			total += spec[k]
			if k <= cut {
				below += spec[k]
			}
		}
		if total == 0 {
			return 0
		}
		return below / total
	}

	const distM = 2.0
	var freqErr, timeErr []float64
	var freqAud, timeAud float64
	for t := 0; t < opts.Trials; t++ {
		// Frequency-domain randomized signal + Algorithm 1.
		sig, err := sigref.New(p, rng)
		if err != nil {
			return nil, err
		}
		rec, truth, err := playThroughChannel(sig.Samples(), distM, rng)
		if err != nil {
			return nil, err
		}
		res, err := det.DetectAll(context.TODO(), rec, sig)
		if err != nil {
			return nil, err
		}
		if res[0].Found {
			freqErr = append(freqErr, math.Abs(float64(res[0].Location)-truth)*acoustic.SpeedOfSoundMPS/44100*100)
		}
		// The emitted analog components sit at 25-35 kHz by construction;
		// judging audibility on the sampled (aliased) spectrum would be
		// wrong, so count the design frequencies directly.
		for _, f := range sig.Frequencies() {
			if f < 16000 {
				freqAud += 1 / float64(sig.Count())
			}
		}

		// Time-domain random signal + cross-correlation.
		raw, err := sigref.TimeDomainRandom(p, rng)
		if err != nil {
			return nil, err
		}
		rec2, truth2, err := playThroughChannel(raw, distM, rng)
		if err != nil {
			return nil, err
		}
		corr, err := dsp.CrossCorrelate(rec2, raw)
		if err != nil {
			return nil, err
		}
		idx, _ := dsp.ArgMax(corr)
		timeErr = append(timeErr, math.Abs(float64(idx)-truth2)*acoustic.SpeedOfSoundMPS/44100*100)
		timeAud += audibleFraction(raw)
	}
	n := float64(opts.Trials)

	return &AblationResult{
		Title: "randomization domain (paper §IV-B): location error at 2 m, office",
		Rows: []AblationRow{
			{Config: "frequency-domain + Alg. 1", Value: stats.Mean(freqErr), Unit: "cm",
				Note: fmt.Sprintf("%d/%d detected, %.0f%% of emitted power audible (<16 kHz)", len(freqErr), opts.Trials, freqAud/n*100)},
			{Config: "time-domain + xcorr", Value: stats.Mean(timeErr), Unit: "cm",
				Note: fmt.Sprintf("%.0f%% of power audible — unusable for inaudible ranging; no ⊥/spoof checks exist for it", timeAud/n*100)},
		},
	}, nil
}

// RunAblationSanityCheck shows the β check is load-bearing. The strongest
// §V adversary runs it two-sided: synchronized attacker speakers near BOTH
// devices play timed all-frequency bursts that mimic the protocol cadence.
// With the β check on, every such session returns ⊥; with it off, the
// spoof bursts are accepted as reference signals, the attacker controls
// the distance estimate, and a fraction of attacks is outright granted.
func RunAblationSanityCheck(opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	res := &AblationResult{Title: "β sanity check vs timed two-sided all-frequency spoofing (user 6 m away)"}

	for _, disable := range []bool{false, true} {
		rng := rand.New(rand.NewSource(opts.Seed + 67))
		cfg := envConfig(acoustic.EnvOffice)
		cfg.Detect.DisableBetaCheck = disable
		// A naive implementation would not have the geometry gate either.
		if disable {
			cfg.PlausibleMinM = -1000
			cfg.PlausibleMaxM = 1000
		}
		auth, vouch, err := newDevicePair(6.0, true, rng)
		if err != nil {
			return nil, err
		}
		atkAuth, err := attack.NewAttackerDevice("attacker-near-auth", [2]float64{0.4, 0}, 0)
		if err != nil {
			return nil, err
		}
		atkVouch, err := attack.NewAttackerDevice("attacker-near-vouch", [2]float64{5.6, 0}, 0)
		if err != nil {
			return nil, err
		}
		a, err := core.NewAuthenticator(cfg, auth, vouch, rng)
		if err != nil {
			return nil, err
		}
		granted, spoofMeasured := 0, 0
		for t := 0; t < opts.Trials; t++ {
			// The attacker estimates the midpoint of the two legitimate
			// plays from the protocol cadence and fires synchronized
			// bursts there from both speakers.
			const burstAt = 0.49
			plays, err := attack.TimedAllFrequency(cfg.Signal, []*device.Device{atkAuth, atkVouch}, burstAt, rng)
			if err != nil {
				return nil, err
			}
			r, err := a.Authenticate(plays...)
			if err != nil {
				return nil, err
			}
			if r.Granted {
				granted++
			}
			if r.Session != nil && r.Session.Found {
				spoofMeasured++
			}
		}
		label := "β check ON (paper)"
		if disable {
			label = "β check OFF (ablated)"
		}
		res.Rows = append(res.Rows, AblationRow{
			Config: label,
			Value:  float64(granted) / float64(opts.Trials) * 100,
			Unit:   "% attacks granted",
			Note: fmt.Sprintf("%d/%d sessions yielded an attacker-controlled distance",
				spoofMeasured, opts.Trials),
		})
	}
	return res, nil
}

// RunAblationTheta sweeps the frequency-smoothing aggregation width.
func RunAblationTheta(opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	res := &AblationResult{Title: "θ smoothing aggregation width: abs distance error at 1 m, office"}
	for _, theta := range []int{0, 1, 5, 10} {
		rng := rand.New(rand.NewSource(opts.Seed + 71))
		cfg := envConfig(acoustic.EnvOffice)
		cfg.Detect.Theta = theta
		pts, err := measureSeries(cfg, []float64{1.0}, opts.Trials, rng, nil)
		if err != nil {
			return nil, err
		}
		note := fmt.Sprintf("⊥ %d/%d", pts[0].Absent, pts[0].Trials)
		res.Rows = append(res.Rows, AblationRow{
			Config: fmt.Sprintf("θ=%d", theta),
			Value:  pts[0].MeanAbsErrCM,
			Unit:   "cm",
			Note:   note,
		})
	}
	return res, nil
}

// RunAblationStep sweeps the fine search step (accuracy/cost trade-off of
// the prototype's adaptive stepping).
func RunAblationStep(opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	res := &AblationResult{Title: "fine search step: abs error and scan cost at 1 m, office"}
	for _, step := range []int{1, 10, 50, 200} {
		rng := rand.New(rand.NewSource(opts.Seed + 73))
		cfg := envConfig(acoustic.EnvOffice)
		cfg.Detect.FineStep = step
		auth, vouch, err := newDevicePair(1.0, true, rng)
		if err != nil {
			return nil, err
		}
		a, err := core.NewAuthenticator(cfg, auth, vouch, rng)
		if err != nil {
			return nil, err
		}
		var errs []float64
		windows := 0
		for t := 0; t < opts.Trials; t++ {
			sr, err := a.Measure()
			if err != nil {
				return nil, err
			}
			if sr.Found {
				errs = append(errs, math.Abs(sr.DistanceM-1.0)*100)
			}
			windows += sr.WindowsScanned
		}
		res.Rows = append(res.Rows, AblationRow{
			Config: fmt.Sprintf("fine step %d", step),
			Value:  stats.Mean(errs),
			Unit:   "cm",
			Note:   fmt.Sprintf("%d windows/auth", windows/opts.Trials),
		})
	}
	return res, nil
}

// RunAblationOneWay contrasts Eq. 3's two-way combination with the naive
// one-way Eq. 1, which requires synchronized clocks. The one-way estimate
// naively assumes both recordings started simultaneously; the tens of
// milliseconds of Bluetooth/processing offset turn into tens of meters.
func RunAblationOneWay(opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed + 79))
	cfg := envConfig(acoustic.EnvOffice)
	auth, vouch, err := newDevicePair(1.0, true, rng)
	if err != nil {
		return nil, err
	}
	a, err := core.NewAuthenticator(cfg, auth, vouch, rng)
	if err != nil {
		return nil, err
	}
	var twoWay, oneWay []float64
	for t := 0; t < opts.Trials; t++ {
		sr, err := a.Measure()
		if err != nil {
			return nil, err
		}
		if !sr.Found {
			continue
		}
		twoWay = append(twoWay, math.Abs(sr.DistanceM-1.0)*100)
		// Eq. 1 with the naive same-origin assumption:
		// d_A = s·(t_VA − t_AA) where both are local sample clocks.
		naive := acoustic.SpeedOfSoundMPS *
			(float64(sr.LocVA)/vouch.SampleRate() - float64(sr.LocAA)/auth.SampleRate())
		oneWay = append(oneWay, math.Abs(naive-1.0)*100)
	}
	return &AblationResult{
		Title: "two-way Eq. 3 vs one-way Eq. 1 without time synchronization",
		Rows: []AblationRow{
			{Config: "two-way (Eq. 3, PIANO)", Value: stats.Mean(twoWay), Unit: "cm"},
			{Config: "one-way (Eq. 1, unsynced)", Value: stats.Mean(oneWay), Unit: "cm",
				Note: "clock offset enters at 343 m/s"},
		},
	}, nil
}

// RunAblationCandidates sweeps the candidate-set size N: guessing-attack
// probability (analytic, §V) against measured accuracy.
func RunAblationCandidates(opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	res := &AblationResult{Title: "candidate count N: replay-guess probability vs accuracy at 1 m"}
	for _, n := range []int{10, 20, 30, 60} {
		rng := rand.New(rand.NewSource(opts.Seed + 83))
		cfg := envConfig(acoustic.EnvOffice)
		cfg.Signal.NumCandidates = n
		pts, err := measureSeries(cfg, []float64{1.0}, opts.Trials, rng, nil)
		if err != nil {
			return nil, err
		}
		prob, err := stats.ReplaySuccessProbability(n)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Config: fmt.Sprintf("N=%d", n),
			Value:  pts[0].MeanAbsErrCM,
			Unit:   "cm",
			Note:   fmt.Sprintf("replay success 1/2^(N+1) = %.2g, ⊥ %d/%d", prob, pts[0].Absent, pts[0].Trials),
		})
	}
	return res, nil
}

// RunAllAblations executes the full ablation battery.
func RunAllAblations(opts Options) ([]*AblationResult, error) {
	runners := []func(Options) (*AblationResult, error){
		RunAblationRandomizationDomain,
		RunAblationSanityCheck,
		RunAblationTheta,
		RunAblationStep,
		RunAblationOneWay,
		RunAblationCandidates,
	}
	out := make([]*AblationResult, 0, len(runners))
	for _, r := range runners {
		res, err := r(opts)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
