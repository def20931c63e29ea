package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/acoustic-auth/piano/internal/acoustic"
)

// Small trial counts keep the suite fast; the cmd tool and benches run the
// paper's full 10/100-trial campaigns.
var fastOpts = Options{Trials: 3, Seed: 5}

func TestRunFig1ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("fig1 workload in -short mode")
	}
	res, err := RunFig1(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d environments", len(res))
	}
	byEnv := map[acoustic.Environment]EnvironmentResult{}
	for _, r := range res {
		byEnv[r.Env] = r
		if len(r.Points) != len(PaperDistances) {
			t.Fatalf("%v: %d points", r.Env, len(r.Points))
		}
		for _, p := range r.Points {
			if p.Absent == p.Trials {
				t.Errorf("%v d=%.1f: everything ⊥", r.Env, p.DistanceM)
			}
			// Errors stay within tens of centimeters at ≤2 m.
			if p.MeanAbsErrCM > 60 {
				t.Errorf("%v d=%.1f: error %.1f cm too large", r.Env, p.DistanceM, p.MeanAbsErrCM)
			}
		}
	}
	// Paper ordering: the street is the noisiest, the office the calmest.
	office := byEnv[acoustic.EnvOffice].SigmaM
	street := byEnv[acoustic.EnvStreet].SigmaM
	if street <= office {
		t.Errorf("street σ %.3f should exceed office σ %.3f", street, office)
	}

	var buf bytes.Buffer
	FprintFig1(&buf, res)
	if !strings.Contains(buf.String(), "Office") || !strings.Contains(buf.String(), "σ_d") {
		t.Error("Fig1 rendering incomplete")
	}
}

func TestRunFig2aTerminatesAndRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2a workload in -short mode")
	}
	res, err := RunFig2a(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "Multiple users" || len(res.Points) != 4 {
		t.Fatalf("result %+v", res)
	}
	var buf bytes.Buffer
	FprintFig2a(&buf, res)
	if !strings.Contains(buf.String(), "Multiple users") && !strings.Contains(buf.String(), "shared office") {
		t.Error("Fig2a rendering incomplete")
	}
}

func TestRunFig2bOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2b workload in -short mode")
	}
	res, err := RunFig2b(Options{Trials: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("%d series", len(res.Series))
	}
	mean := func(s MethodSeries) float64 {
		var sum float64
		var n int
		for _, p := range s.Points {
			if p.Trials-p.Absent > 0 {
				sum += p.MeanAbsErrCM
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	action, cc, echo := mean(res.Series[0]), mean(res.Series[1]), mean(res.Series[2])
	if !(action < cc && action < echo) {
		t.Fatalf("ordering violated: ACTION %.1f, CC %.1f, Echo %.1f cm", action, cc, echo)
	}
	if cc < 5*action {
		t.Errorf("ACTION-CC %.1f cm not ≫ ACTION %.1f cm", cc, action)
	}
	var buf bytes.Buffer
	FprintFig2b(&buf, res)
	if !strings.Contains(buf.String(), "Echo-Secure") {
		t.Error("Fig2b rendering incomplete")
	}
}

func TestBuildTablesFromSigma(t *testing.T) {
	envs := []EnvironmentResult{
		{Label: "Office", SigmaM: 0.070},
		{Label: "Street", SigmaM: 0.158},
	}
	res, err := BuildTables(envs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	office := res.Rows[0]
	// Paper Table I office row: 5.6, 2.8, 1.9, 1.4 percent.
	paper := []float64{0.056, 0.028, 0.019, 0.014}
	for i, want := range paper {
		if got := office.FRR[i]; got < want-0.006 || got > want+0.006 {
			t.Errorf("office FRR[τ=%.1f] = %.4f, paper %.3f", res.Thresholds[i], got, want)
		}
	}
	// FARs all under 1%.
	for i, far := range office.FAR {
		if far > 0.01 {
			t.Errorf("office FAR[%d] = %.4f", i, far)
		}
	}
	// Street FRR must exceed office FRR at every τ.
	for i := range paper {
		if res.Rows[1].FRR[i] <= office.FRR[i] {
			t.Errorf("street FRR ≤ office FRR at τ=%.1f", res.Thresholds[i])
		}
	}

	if _, err := BuildTables([]EnvironmentResult{{Label: "x", SigmaM: 0}}); err == nil {
		t.Error("zero sigma accepted")
	}

	var buf bytes.Buffer
	FprintTables(&buf, res)
	out := buf.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "Table II") {
		t.Error("tables rendering incomplete")
	}
}

func TestRunWallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("wall workload in -short mode")
	}
	res, err := RunWall(Options{Trials: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Near same-room points detect; all through-wall points deny.
	if res.SameRoom[0].DetectRate == 0 {
		t.Error("0.5 m same-room never detected")
	}
	last := res.SameRoom[len(res.SameRoom)-1]
	if last.DetectRate > 0.5 {
		t.Errorf("4 m same-room detect rate %.2f", last.DetectRate)
	}
	for _, p := range res.ThroughWall {
		if p.DetectRate > 0 {
			t.Errorf("through-wall detection at %.1f m", p.DistanceM)
		}
	}
	var buf bytes.Buffer
	FprintWall(&buf, res)
	if !strings.Contains(buf.String(), "through wall") {
		t.Error("wall rendering incomplete")
	}
}

func TestRunSecurityNoFalseAccepts(t *testing.T) {
	if testing.Short() {
		t.Skip("security workload in -short mode")
	}
	res, err := RunSecurity(Options{Trials: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("%d outcomes", len(res.Outcomes))
	}
	for _, o := range res.Outcomes {
		if o.Accepted != 0 {
			t.Errorf("%s: %d/%d accepted", o.Attack, o.Accepted, o.Trials)
		}
	}
	if res.AnalyticReplayProb <= 0 || res.AnalyticReplayProb > 1e-8 {
		t.Errorf("analytic probability %g", res.AnalyticReplayProb)
	}
	var buf bytes.Buffer
	FprintSecurity(&buf, res)
	if !strings.Contains(buf.String(), "spoofing") {
		t.Error("security rendering incomplete")
	}
}

func TestRunEfficiencyBands(t *testing.T) {
	if testing.Short() {
		t.Skip("efficiency workload in -short mode")
	}
	res, err := RunEfficiency(Options{Trials: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAuthSec <= 0.5 || res.MeanAuthSec > 3.5 {
		t.Errorf("mean auth time %.2f s outside the paper band", res.MeanAuthSec)
	}
	if res.BatteryPercentPer100 <= 0.1 || res.BatteryPercentPer100 > 2 {
		t.Errorf("battery per 100 auths %.2f%% outside the paper band", res.BatteryPercentPer100)
	}
	var buf bytes.Buffer
	FprintEfficiency(&buf, res)
	if !strings.Contains(buf.String(), "battery") {
		t.Error("efficiency rendering incomplete")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Trials != 10 || o.Seed != 1 {
		t.Fatalf("defaults %+v", o)
	}
	o = Options{Trials: 7, Seed: 3}.withDefaults()
	if o.Trials != 7 || o.Seed != 3 {
		t.Fatalf("explicit options overridden: %+v", o)
	}
}

func TestScenarioNames(t *testing.T) {
	if scenarioName(acoustic.EnvOffice) != "Office" || scenarioName(acoustic.EnvStreet) != "Street" {
		t.Fatal("scenario names")
	}
	if scenarioName(acoustic.EnvQuiet) != "quiet" {
		t.Fatalf("fallback name %q", scenarioName(acoustic.EnvQuiet))
	}
}

// TestAblationRandomizationDomainPinned pins the randomization-domain
// ablation bit for bit: every row's Value (as Float64bits) and Note string
// for three trials at seed 5, recorded when the audible-power fraction was
// computed with the radix-2 power spectrum. Moving that fraction onto the
// planned transform must leave the rendered table unchanged.
func TestAblationRandomizationDomainPinned(t *testing.T) {
	res, err := RunAblationRandomizationDomain(Options{Trials: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		config string
		bits   uint64
		note   string
	}{
		{"frequency-domain + Alg. 1", 0x40092f684bda125f, "3/3 detected, 0% of emitted power audible (<16 kHz)"},
		{"time-domain + xcorr", 0x401b8e38e38e39c8, "73% of power audible — unusable for inaudible ranging; no ⊥/spoof checks exist for it"},
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		r := res.Rows[i]
		if r.Config != w.config || math.Float64bits(r.Value) != w.bits || r.Note != w.note {
			t.Errorf("row %d = {%q, %#x, %q}, want {%q, %#x, %q}",
				i, r.Config, math.Float64bits(r.Value), r.Note, w.config, w.bits, w.note)
		}
	}
}
