package faultinject

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDisabledFireIsNoop(t *testing.T) {
	Disable()
	if err := Fire(SiteDetectBlock); err != nil {
		t.Fatalf("disabled Fire returned %v", err)
	}
	// Arming without Enable is a documented no-op.
	Arm(SiteDetectBlock, Fault{Action: ActPanic})
	if err := Fire(SiteDetectBlock); err != nil {
		t.Fatalf("disabled Fire after Arm returned %v", err)
	}
	if enabled.Load() {
		t.Fatal("registry reports enabled after Disable")
	}
}

func TestSkipAndTimes(t *testing.T) {
	Enable(1)
	defer Disable()
	sentinel := errors.New("boom")
	Arm("test.site", Fault{Action: ActError, Err: sentinel, Skip: 2, Times: 3})
	var hits int
	for i := 0; i < 10; i++ {
		if err := Fire("test.site"); err != nil {
			if !errors.Is(err, sentinel) {
				t.Fatalf("fire %d: got %v", i, err)
			}
			hits++
		}
	}
	// Skip 2, then trigger 3 times, then exhausted.
	if hits != 3 {
		t.Fatalf("hits = %d, want 3", hits)
	}
	if got := Hits("test.site"); got != 3 {
		t.Fatalf("Hits = %d, want 3", got)
	}
	if got := Hits("unknown.site"); got != 0 {
		t.Fatalf("Hits(unknown) = %d, want 0", got)
	}
}

func TestPanicAction(t *testing.T) {
	Enable(1)
	defer Disable()
	Arm("test.panic", Fault{Action: ActPanic, Times: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("armed panic site did not panic")
			}
		}()
		_ = Fire("test.panic")
	}()
	// Exhausted after one trigger.
	if err := Fire("test.panic"); err != nil {
		t.Fatalf("exhausted panic site returned %v", err)
	}
}

func TestDelayAndHook(t *testing.T) {
	Enable(1)
	defer Disable()
	var hooked bool
	Arm("test.delay", Fault{Action: ActDelay, Delay: 5 * time.Millisecond, Times: 1, Hook: func() { hooked = true }})
	start := time.Now()
	if err := Fire("test.delay"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("delay fired after %v, want ≥ 5ms", d)
	}
	if !hooked {
		t.Fatal("hook did not run")
	}
}

func TestErrorDefault(t *testing.T) {
	Enable(1)
	defer Disable()
	Arm("test.err", Fault{Action: ActError})
	if err := Fire("test.err"); err == nil {
		t.Fatal("ActError with nil Err returned nil")
	}
}

// TestSeededProbDeterministic: equal seeds draw the same trigger sequence
// when firings are sequential.
func TestSeededProbDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		Enable(seed)
		defer Disable()
		Arm("test.prob", Fault{Action: ActError, Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = Fire("test.prob") != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged between equal-seed runs", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds drew identical 64-firing pattern (suspicious)")
	}
}

// TestConcurrentFire: hammering an armed registry from many goroutines
// must be race-free (run under -race in CI) and respect Times exactly.
func TestConcurrentFire(t *testing.T) {
	Enable(7)
	defer Disable()
	sentinel := errors.New("boom")
	Arm("test.conc", Fault{Action: ActError, Err: sentinel, Times: 5})
	var wg sync.WaitGroup
	var mu sync.Mutex
	hits := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if Fire("test.conc") != nil {
					mu.Lock()
					hits++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if hits != 5 {
		t.Fatalf("Times=5 triggered %d times", hits)
	}
}

func TestEnableResetsSites(t *testing.T) {
	Enable(1)
	Arm("test.reset", Fault{Action: ActError})
	Enable(1) // re-enable clears armed faults
	defer Disable()
	if err := Fire("test.reset"); err != nil {
		t.Fatalf("site survived re-Enable: %v", err)
	}
}

// TestChaosRegistryConcurrentSites hammers the registry itself from many
// goroutines across several sites while the armed set is live — the -race
// smoke for the chaos tooling (the CI chaos step runs TestChaos* here and
// in internal/service).
func TestChaosRegistryConcurrentSites(t *testing.T) {
	Enable(99)
	defer Disable()
	sites := []string{SiteServiceAcquire, SiteServiceSession, SiteDetectBlock}
	for _, site := range sites {
		Arm(site, Fault{Action: ActError, Skip: 5, Times: 7})
	}
	var wg sync.WaitGroup
	injected := make([]atomic.Int64, len(sites))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for si, site := range sites {
					if Fire(site) != nil {
						injected[si].Add(1)
					}
				}
				_ = Hits(sites[i%len(sites)])
			}
		}()
	}
	wg.Wait()
	for si, site := range sites {
		if got := injected[si].Load(); got != 7 {
			t.Fatalf("site %s injected %d errors, want exactly Times=7", site, got)
		}
		if Hits(site) != 7 {
			t.Fatalf("site %s Hits=%d, want 7", site, Hits(site))
		}
	}
}
