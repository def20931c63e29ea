package acoustic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/acoustic-auth/piano/internal/dsp"
)

// TestAllpassPreservesEnergy: an allpass cascade has |H(f)| = 1, so total
// signal energy must be preserved (modulo the truncated tail).
func TestAllpassPreservesEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var inEnergy float64
	for _, v := range x {
		inEnergy += v * v
	}
	coeffs := []float64{0.4, -0.3, 0.25, -0.45}
	y := allpass(x, coeffs)
	var outEnergy float64
	for _, v := range y {
		outEnergy += v * v
	}
	if math.Abs(outEnergy-inEnergy) > 0.02*inEnergy {
		t.Fatalf("energy not preserved: in %g out %g", inEnergy, outEnergy)
	}
}

// TestAllpassPreservesBandPower: a sinusoid's band power (what Algorithm 2
// reads) must survive the dispersion essentially unchanged.
func TestAllpassPreservesBandPower(t *testing.T) {
	const (
		fs = 44100.0
		n  = 4096
	)
	sine, err := dsp.Sine(30166.67, 1000, 0.4, fs, n)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := []float64{0.45, -0.4, 0.3, -0.2}
	y := allpass(sine, coeffs)

	specIn := powerSpectrum(t, sine)
	specOut := powerSpectrum(t, y[:n])
	bin := dsp.BinIndex(30166.67, fs, n)
	in := dsp.BandPower(specIn, bin, 5)
	out := dsp.BandPower(specOut, bin, 5)
	if out < 0.75*in || out > 1.25*in {
		t.Fatalf("band power changed: in %g out %g", in, out)
	}
}

// TestAllpassDecorrelatesWaveform: the same cascade must visibly reduce
// normalized cross-correlation against the original waveform — the
// frequency-smoothing effect.
func TestAllpassDecorrelatesWaveform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 2048)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	coeffs := []float64{0.45, -0.45, 0.45, -0.45}
	y := allpass(x, coeffs)

	corr, err := dsp.CrossCorrelate(y, x)
	if err != nil {
		t.Fatal(err)
	}
	_, peak := dsp.ArgMax(corr)
	if peak > 0.9 {
		t.Fatalf("correlation peak %g: dispersion too weak to smooth anything", peak)
	}
}

func TestAllpassIdentity(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := allpass(x, nil)
	for i, v := range x {
		if y[i] != v {
			t.Fatalf("no-coefficient cascade altered sample %d", i)
		}
	}
	// Zero coefficient = pure one-sample delay per section.
	y = allpass(x, []float64{0})
	if y[0] != 0 || y[1] != 1 || y[2] != 2 {
		t.Fatalf("a=0 section should delay by one sample: %v", y[:4])
	}
}

func TestAllpassEnergyProperty(t *testing.T) {
	f := func(seed int64, aRaw float64) bool {
		a := math.Mod(aRaw, 0.9)
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 1024)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var in float64
		for _, v := range x {
			in += v * v
		}
		y := allpass(x, []float64{a})
		var out float64
		for _, v := range y {
			out += v * v
		}
		return math.Abs(out-in) < 0.05*in+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// allpass runs x through the cascade on a fresh workspace, so the result
// outlives later calls.
func allpass(x, coeffs []float64) []float64 {
	var ws AllpassWorkspace
	return ws.Apply(x, coeffs)
}
