package detect

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/acoustic-auth/piano/internal/audio"
	"github.com/acoustic-auth/piano/internal/sigref"
)

// benchRecording builds a deterministic two-signal recording shaped like one
// authentication capture (1.2 s at 44.1 kHz).
func benchRecording(tb testing.TB, seed int64, total int) ([]float64, *sigref.Signal, *sigref.Signal) {
	tb.Helper()
	p := sigref.DefaultParams()
	rng := rand.New(rand.NewSource(seed))
	s1, err := sigref.New(p, rng)
	if err != nil {
		tb.Fatal(err)
	}
	s2, err := sigref.New(p, rng)
	if err != nil {
		tb.Fatal(err)
	}
	rec := make([]float64, total)
	for i := range rec {
		rec[i] = 40 * rng.NormFloat64() // faint wideband floor
	}
	at1, at2 := total/6, total*3/5 // both windows fit: total ≥ at2+signal length
	for i, v := range s1.Samples() {
		rec[at1+i] += 0.5 * v
	}
	for i, v := range s2.Samples() {
		rec[at2+i] += 0.4 * v
	}
	return rec, s1, s2
}

// TestDetectAllDeterministicAcrossWorkerCounts forces the parallel scan path
// and asserts it produces results identical to the single-worker path — the
// bit-exactness contract of the parallel pipeline.
func TestDetectAllDeterministicAcrossWorkerCounts(t *testing.T) {
	rec, s1, s2 := benchRecording(t, 21, 52920)
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	prev := runtime.GOMAXPROCS(1)
	seq, errSeq := detectFloat(det, rec, s1, s2)
	runtime.GOMAXPROCS(4)
	par, errPar := detectFloat(det, rec, s1, s2)
	runtime.GOMAXPROCS(prev)
	if errSeq != nil || errPar != nil {
		t.Fatal(errSeq, errPar)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("signal %d: sequential %+v != parallel %+v", i, seq[i], par[i])
		}
	}
	if !seq[0].Found || !seq[1].Found {
		t.Fatalf("planted signals not found: %+v", seq)
	}

	// And repeated runs are stable.
	again, err := detectFloat(det, rec, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != again[i] {
			t.Fatalf("signal %d: run-to-run drift: %+v != %+v", i, seq[i], again[i])
		}
	}
}

// TestDetectAllSteadyStateAllocs is the satellite gate: once the pools are
// warm, DetectAll's allocations must not scale with the number of scanned
// windows (i.e. zero per-window heap allocations).
func TestDetectAllSteadyStateAllocs(t *testing.T) {
	recShort, a1, a2 := benchRecording(t, 22, 26460) // ~0.6 s: ~27 coarse windows
	recLong, b1, b2 := benchRecording(t, 23, 52920)  // ~1.2 s: ~49 coarse windows
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the workspace and score pools.
	if _, err := detectFloat(det, recLong, b1, b2); err != nil {
		t.Fatal(err)
	}

	measure := func(rec []float64, s1, s2 *sigref.Signal) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := detectFloat(det, rec, s1, s2); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(recShort, a1, a2)
	long := measure(recLong, b1, b2)

	// Fixed per-call overhead: results + sigSpecs + worker bookkeeping.
	const fixedBudget = 80
	if long > fixedBudget {
		t.Fatalf("DetectAll allocates %.0f per call, budget %d", long, fixedBudget)
	}
	// Doubling the window count must not grow allocations: whatever remains
	// is per-call, not per-window.
	if long > short+8 {
		t.Fatalf("allocations scale with windows: %.0f (short) → %.0f (long)", short, long)
	}
}

func BenchmarkDetectAll(b *testing.B) {
	rec, s1, s2 := benchRecording(b, 24, 52920)
	det, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkDetectAllFine isolates the streaming fine scan on the paper's
// default configuration: "streamed" runs the sliding-DFT fine hops with
// exact-at-peak re-checks (the production path; the default coarse step
// never streams either way), "exact" forces the historical all-exact fine
// scan. The gap is the tentpole win of the fine-scan streaming work
// (BENCH_finescan.json / `make bench-fine`); results are bit-identical by
// construction (TestFineScanStreamedBitIdentical).
func BenchmarkDetectAllFine(b *testing.B) {
	rec, s1, s2 := benchRecording(b, 24, 52920)
	run := func(b *testing.B, disable bool) {
		det, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		det.disableStream = disable
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
	b.Run("streamed", func(b *testing.B) { run(b, false) })
	b.Run("exact", func(b *testing.B) { run(b, true) })
}

// BenchmarkDetectAllPCM measures the zero-copy int16 ingestion path — a
// stream fed once over the borrowed session-shaped recording: identical
// scan work to BenchmarkDetectAll, no recording-sized copy (compare
// allocs/op).
func BenchmarkDetectAllPCM(b *testing.B) {
	recF, s1, s2 := benchRecording(b, 24, 52920)
	rec := audio.FromFloat(recF)
	det, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := detectPCM(det, rec, s1, s2)
		if err != nil {
			b.Fatal(err)
		}
		if !res[0].Found || !res[1].Found {
			b.Fatal("planted signals not found")
		}
	}
}
