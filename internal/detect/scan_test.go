package detect

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/acoustic-auth/piano/internal/sigref"
)

// testBand is the derived candidate band tests hand to scanWindows directly.
func testBand(p sigref.Params) bandRange {
	lo, hi := CandidateBand(p, DefaultConfig().Theta)
	return bandRange{lo, hi}
}

// TestScanWindowsBoundsGuard is the truncated-recording regression test:
// scanWindows used to trust its caller and slice recording[i:i+winLen]
// unchecked, so a window sequence extending past the recording end
// panicked with an out-of-range slice. It must return an error instead.
func TestScanWindowsBoundsGuard(t *testing.T) {
	p := sigref.DefaultParams()
	rng := rand.New(rand.NewSource(7))
	sig, err := sigref.New(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := det.newSigSpec(sig)

	// A window sequence sized for a 30000-sample recording, handed a
	// truncated one: lo + (count-1)*step + winLen = 24096 > 20000.
	truncated := make([]float64, 20000)
	scores := make([]float64, 21)
	err = det.scanWindows(nil, recSource{f: truncated}, p.Length, 0, 1000, 21, testBand(p), false, []*sigSpec{spec}, scores, nil)
	if err == nil {
		t.Fatal("scanWindows accepted a window sequence past the recording end")
	}
	if !strings.Contains(err.Error(), "too short") {
		t.Fatalf("unexpected error: %v", err)
	}

	// Degenerate sequences are refused too.
	if err := det.scanWindows(nil, recSource{f: truncated}, p.Length, -1, 1000, 1, testBand(p), false, []*sigSpec{spec}, scores, nil); err == nil {
		t.Fatal("negative lo accepted")
	}
	if err := det.scanWindows(nil, recSource{f: truncated}, p.Length, 0, 0, 1, testBand(p), false, []*sigSpec{spec}, scores, nil); err == nil {
		t.Fatal("zero step accepted")
	}
	if err := det.scanWindows(nil, recSource{f: truncated}, p.Length, 0, 1000, 0, testBand(p), false, []*sigSpec{spec}, scores, nil); err == nil {
		t.Fatal("zero count accepted")
	}

	// The exported surface rejects too-short recordings outright.
	if _, err := detectOne(det, make([]float64, p.Length-1), sig); err == nil {
		t.Fatal("Detect accepted a recording shorter than the window")
	}
	if _, err := detectFloat(det, make([]float64, p.Length-1), sig, sig); err == nil {
		t.Fatal("DetectAll accepted a recording shorter than the window")
	}
}

// TestPooledScanConcurrentSessions: many goroutines sharing one Detector
// (its pooled workspaces and score buffers) must each get the same answer
// they'd get alone (run under -race in CI).
func TestPooledScanConcurrentSessions(t *testing.T) {
	p := sigref.DefaultParams()
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	type job struct {
		sig  *sigref.Signal
		rec  []float64
		want Result
	}
	jobs := make([]job, 6)
	for i := range jobs {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		sig, err := sigref.New(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		rec := plantSignal(sig, 30000, 2000+3000*i, 0.5)
		want, err := detectOne(det, rec, sig)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Found {
			t.Fatalf("job %d: planted signal not found", i)
		}
		jobs[i] = job{sig: sig, rec: rec, want: want}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	got := make([]Result, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = detectOne(det, jobs[i].rec, jobs[i].sig)
		}(i)
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if got[i] != jobs[i].want {
			t.Fatalf("job %d: concurrent %+v != serial %+v", i, got[i], jobs[i].want)
		}
	}
}
