package piano

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§VI), plus the ablation battery and protocol micro-benches.
// Workload benchmarks run reduced trial counts per iteration so the suite
// stays tractable; `cmd/piano-experiments` runs the paper's full campaign.
//
// Regeneration map:
//
//	Figure 1   → BenchmarkFig1DistanceErrors
//	Figure 2a  → BenchmarkFig2aMultiUser
//	Figure 2b  → BenchmarkFig2bProtocolComparison
//	Table I    → BenchmarkTable1FRR
//	Table II   → BenchmarkTable2FAR
//	§VI-B wall → BenchmarkWallAndRange
//	§VI-E      → BenchmarkSecurityCampaign
//	§VI-D      → BenchmarkEfficiency
//	ablations  → BenchmarkAblation* (internal/experiments/ablation.go)
import (
	"testing"

	"github.com/acoustic-auth/piano/internal/experiments"
	"github.com/acoustic-auth/piano/internal/stats"
)

// benchOpts keeps per-iteration work bounded.
var benchOpts = experiments.Options{Trials: 2, Seed: 17}

func BenchmarkFig1DistanceErrors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig1(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2aMultiUser(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig2a(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2bProtocolComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig2b(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// tableSigmas are representative measured σ_d values (meters) so the table
// benches exercise the decision-model evaluation in isolation.
var tableSigmas = []experiments.EnvironmentResult{
	{Label: "Office", SigmaM: 0.066},
	{Label: "Home", SigmaM: 0.125},
	{Label: "Street", SigmaM: 0.158},
	{Label: "Restaurant", SigmaM: 0.104},
	{Label: "Multiple users", SigmaM: 0.090},
}

func BenchmarkTable1FRR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.BuildTables(tableSigmas)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 5 {
			b.Fatal("row count")
		}
	}
}

func BenchmarkTable2FAR(b *testing.B) {
	m := stats.DecisionModel{SigmaM: 0.07, MaxDetectableM: 2.5, BTRangeM: 10}
	for i := 0; i < b.N; i++ {
		for _, tau := range experiments.PaperThresholds {
			if _, err := m.FAR(tau); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkWallAndRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunWall(experiments.Options{Trials: 1, Seed: 17}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSecurityCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSecurity(experiments.Options{Trials: 2, Seed: 17}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunEfficiency(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRandomizationDomain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationRandomizationDomain(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSanityCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationSanityCheck(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTheta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationTheta(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationStep(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOneWay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationOneWay(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCandidates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationCandidates(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuthentication measures one full end-to-end PIANO session
// (world render + four detections + protocol messaging).
func BenchmarkAuthentication(b *testing.B) {
	dep, err := NewDeployment(DefaultConfig(),
		DeviceSpec{Name: "speaker", X: 0, Y: 0},
		DeviceSpec{Name: "watch", X: 0.8, Y: 0})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Authenticate(); err != nil {
			b.Fatal(err)
		}
	}
}
