package sigref

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/acoustic-auth/piano/internal/dsp"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero rate", func(p *Params) { p.SampleRate = 0 }},
		{"length not pow2", func(p *Params) { p.Length = 4000 }},
		{"band inverted", func(p *Params) { p.BandHighHz = p.BandLowHz - 1 }},
		{"band zero low", func(p *Params) { p.BandLowHz = 0 }},
		{"one candidate", func(p *Params) { p.NumCandidates = 1 }},
		{"too many candidates", func(p *Params) { p.NumCandidates = 256 }},
		{"zero full scale", func(p *Params) { p.FullScale = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := DefaultParams()
			c.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("%s accepted", c.name)
			}
		})
	}
}

func TestCandidatesMatchPaperGrid(t *testing.T) {
	p := DefaultParams()
	c := p.Candidates()
	if len(c) != 30 {
		t.Fatalf("%d candidates", len(c))
	}
	// 30 bins over [25k, 35k]: width 333.33 Hz, first center 25166.67 Hz.
	if math.Abs(c[0]-25000-10000.0/60) > 1e-9 {
		t.Errorf("first candidate %g", c[0])
	}
	if math.Abs(c[29]-35000+10000.0/60) > 1e-9 {
		t.Errorf("last candidate %g", c[29])
	}
	for i := 1; i < len(c); i++ {
		if math.Abs(c[i]-c[i-1]-10000.0/30) > 1e-9 {
			t.Errorf("uneven spacing at %d", i)
		}
	}
}

func TestDurationMatchesPaper(t *testing.T) {
	// 4096 samples at 44.1 kHz lasts ~93 ms per the paper.
	d := DefaultParams().DurationSec()
	if d < 0.092 || d > 0.094 {
		t.Fatalf("duration %g s, want ≈0.093", d)
	}
}

func TestNewProducesValidCounts(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		s, err := New(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if s.Count() < 1 || s.Count() >= p.NumCandidates {
			t.Fatalf("count %d out of range", s.Count())
		}
		idx := s.Indices()
		for j := 1; j < len(idx); j++ {
			if idx[j] <= idx[j-1] {
				t.Fatalf("indices not strictly increasing: %v", idx)
			}
		}
	}
}

func TestNewNilRNG(t *testing.T) {
	if _, err := New(DefaultParams(), nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := NewWithCount(DefaultParams(), 3, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := TimeDomainRandom(DefaultParams(), nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestPowerBudgetInvariants(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 15, 29} {
		s, err := NewWithCount(p, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		wantRF := (32000.0 / float64(n)) * (32000.0 / float64(n))
		if math.Abs(s.RF()-wantRF) > 1e-6 {
			t.Errorf("n=%d: RF=%g want %g", n, s.RF(), wantRF)
		}
		if math.Abs(s.TotalRF()-32000*32000/float64(n)) > 1e-3 {
			t.Errorf("n=%d: TotalRF=%g", n, s.TotalRF())
		}
		// Never clips: peak ≤ FullScale ≤ int16 range.
		if peak := dsp.PeakAbs(s.Samples()); peak > p.FullScale {
			t.Errorf("n=%d: peak %g exceeds full scale", n, peak)
		}
	}
}

// TestSpectralConcentration verifies the constructed signal's power lands on
// its chosen candidate bins and nowhere else above the β floor.
func TestSpectralConcentration(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(11))
	s, err := NewWithCount(p, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	spec := powerSpectrum(t, s.Samples())
	chosen := make(map[int]bool)
	for _, f := range s.Frequencies() {
		chosen[s.paramsBin(f)] = true
	}
	const theta = 5
	// Power at chosen bins ≈ RF.
	for _, f := range s.Frequencies() {
		got := dsp.BandPower(spec, s.paramsBin(f), theta)
		if got < 0.5*s.RF() {
			t.Errorf("freq %g: band power %g < RF/2 (%g)", f, got, s.RF()/2)
		}
	}
	// Power at non-chosen candidates below β = 0.5%·RF.
	beta := 0.005 * s.RF()
	for i, f := range p.Candidates() {
		if chosen[s.paramsBin(f)] {
			continue
		}
		if got := dsp.BandPower(spec, s.paramsBin(f), theta); got > beta {
			t.Errorf("candidate %d (%g Hz): leakage %g exceeds beta %g", i, f, got, beta)
		}
	}
}

// paramsBin is a test helper mirroring Algorithm 2's bin indexing.
func (s *Signal) paramsBin(f float64) int {
	return dsp.BinIndex(f, s.params.SampleRate, s.params.Length)
}

func TestMarshalRoundTripProperty(t *testing.T) {
	p := DefaultParams()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := New(p, rng)
		if err != nil {
			return false
		}
		data, err := s.MarshalBinary()
		if err != nil {
			return false
		}
		got, err := UnmarshalSignal(data)
		if err != nil {
			return false
		}
		return Equal(s, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalSignal(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := UnmarshalSignal(make([]byte, 10)); err == nil {
		t.Error("short accepted")
	}
	s, err := New(DefaultParams(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSignal(data[:len(data)-1]); err == nil {
		t.Error("truncated accepted")
	}
}

// TestUnmarshalBoundsLength is the hardening regression test: a descriptor
// whose Length field is absurd (here 2³⁰, a power of two that would pass
// Params.Validate and later demand an 8 GiB synthesis buffer from
// Samples) must be rejected at the Step-II trust boundary, as must a zero
// length. A length at the bound itself still decodes.
func TestUnmarshalBoundsLength(t *testing.T) {
	s, err := New(DefaultParams(), rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	forge := func(length uint32) []byte {
		d := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(d[0:4], length)
		return d
	}
	for _, bad := range []uint32{0, 1 << 30, MaxSignalLength * 2, ^uint32(0)} {
		if _, err := UnmarshalSignal(forge(bad)); !errors.Is(err, ErrBadEncoding) {
			t.Errorf("length %d: got %v, want ErrBadEncoding", bad, err)
		}
	}
	if _, err := UnmarshalSignal(forge(MaxSignalLength)); err != nil {
		t.Errorf("length at the bound rejected: %v", err)
	}
}

// TestSamplesCachedAndStable pins the lazy-synthesis contract: Samples
// returns the same backing array on every call (no re-synthesis), the
// cached waveform matches a from-scratch synthesis bit for bit, and
// concurrent first calls settle on one buffer.
func TestSamplesCachedAndStable(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(23))
	s, err := New(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	// An equal twin synthesizes the reference waveform independently.
	twin, err := NewFromIndices(p, s.Indices(), s.phases)
	if err != nil {
		t.Fatal(err)
	}

	var bufs [4][]float64
	var wg sync.WaitGroup
	for i := range bufs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bufs[i] = s.Samples()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(bufs); i++ {
		if &bufs[i][0] != &bufs[0][0] {
			t.Fatal("Samples returned distinct buffers across calls")
		}
	}
	if &s.Samples()[0] != &bufs[0][0] {
		t.Fatal("later Samples call re-synthesized")
	}
	want := twin.Samples()
	got := bufs[0]
	if len(got) != p.Length || len(want) != p.Length {
		t.Fatalf("lengths %d/%d, want %d", len(got), len(want), p.Length)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: cached %v != fresh synthesis %v", i, got[i], want[i])
		}
	}
}

func TestNewFromIndicesValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := NewFromIndices(p, nil, nil); err == nil {
		t.Error("empty indices accepted")
	}
	if _, err := NewFromIndices(p, []int{0, 0}, nil); err == nil {
		t.Error("duplicate indices accepted")
	}
	if _, err := NewFromIndices(p, []int{30}, nil); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := NewFromIndices(p, []int{1, 2}, []float64{0}); err == nil {
		t.Error("phase length mismatch accepted")
	}
	s, err := NewFromIndices(p, []int{5, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx := s.Indices(); idx[0] != 2 || idx[1] != 5 {
		t.Errorf("indices not sorted: %v", idx)
	}
}

func TestEqual(t *testing.T) {
	p := DefaultParams()
	a, err := NewFromIndices(p, []int{1, 2}, []float64{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFromIndices(p, []int{1, 2}, []float64{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFromIndices(p, []int{1, 3}, []float64{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, b) || Equal(a, c) || Equal(a, nil) || !Equal(nil, nil) {
		t.Error("Equal misbehaves")
	}
}

func TestTimeDomainRandomFullScale(t *testing.T) {
	p := DefaultParams()
	x, err := TimeDomainRandom(p, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != p.Length {
		t.Fatalf("length %d", len(x))
	}
	if peak := dsp.PeakAbs(x); peak > p.FullScale {
		t.Fatalf("peak %g", peak)
	}
}

// powerSpectrum is the full-length normalized power spectrum of x on the
// planned transform (dsp.FFTPlan.PowerSpectrumInto).
func powerSpectrum(t *testing.T, x []float64) []float64 {
	t.Helper()
	plan, err := dsp.SharedFFTPlan(len(x))
	if err != nil {
		t.Fatal(err)
	}
	spec := make([]float64, len(x))
	if err := plan.PowerSpectrumInto(spec, x, plan.NewScratch()); err != nil {
		t.Fatal(err)
	}
	return spec
}

// Equal reports whether two signals have identical parameters, frequency
// sets, and phases: the oracle the round-trip tests compare against.
func Equal(a, b *Signal) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.params != b.params || len(a.indices) != len(b.indices) {
		return false
	}
	for i := range a.indices {
		if a.indices[i] != b.indices[i] || a.phases[i] != b.phases[i] {
			return false
		}
	}
	return true
}
