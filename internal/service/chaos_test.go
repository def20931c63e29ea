package service

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/faultinject"
)

// sameDecision compares the externally visible decision bits.
func sameDecision(a, b *core.Result) bool {
	if a.Granted != b.Granted || a.Reason != b.Reason ||
		math.Float64bits(a.DistanceM) != math.Float64bits(b.DistanceM) {
		return false
	}
	if (a.Session == nil) != (b.Session == nil) {
		return false
	}
	return a.Session == nil || *a.Session == *b.Session
}

// chaosTyped reports whether err is one of the typed outcomes every chaos
// request is allowed to resolve to.
func chaosTyped(err error, allowClosed bool) bool {
	switch {
	case errors.Is(err, ErrOverloaded),
		errors.Is(err, ErrInternal),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return true
	case errors.Is(err, ErrClosed):
		return allowClosed
	}
	return false
}

// TestChaosMixedFaultStorm is the PR-6 chaos scenario: a saturated service
// hammered by concurrent requests while injected faults force slot
// starvation (admission delays against a bounded queue), worker panics,
// slow-scan stalls, and caller-side cancellations/timeouts — all at once,
// under -race in CI. The invariant: every request resolves to a typed error
// or to a result bit-identical to its request's fault-free run, and the
// service remains fully serviceable afterwards.
func TestChaosMixedFaultStorm(t *testing.T) {
	svc, err := New(Config{
		Core:          core.DefaultConfig(),
		Workers:       2,
		MaxSessions:   2,
		MaxQueueWait:  100 * time.Millisecond,
		MaxQueueDepth: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = pairRequest(0.4+0.4*float64(i), int64(70+i))
	}
	reqs[1].Interferers = []DeviceSpec{{Name: "other-user", X: 2.1, Y: 1.3}}
	baseline := make([]*core.Result, len(reqs))
	for i, req := range reqs {
		if baseline[i], err = svc.authenticate(req); err != nil {
			t.Fatal(err)
		}
	}

	faultinject.Enable(42)
	defer faultinject.Disable()
	// Admission pressure: a probabilistic stall right before slot
	// acquisition backs requests up against MaxQueueWait/MaxQueueDepth.
	faultinject.Arm(faultinject.SiteServiceAcquire, faultinject.Fault{
		Action: faultinject.ActDelay, Delay: 2 * time.Millisecond, Prob: 0.3,
	})
	// Session-goroutine crashes.
	faultinject.Arm(faultinject.SiteServiceSession, faultinject.Fault{
		Action: faultinject.ActPanic, Prob: 0.2,
	})
	// Slow-scan stalls deep inside the block grid.
	faultinject.Arm(faultinject.SiteDetectBlock, faultinject.Fault{
		Action: faultinject.ActDelay, Delay: 200 * time.Microsecond, Prob: 0.01, Skip: 10,
	})

	const storm = 32
	var wg sync.WaitGroup
	results := make([]*core.Result, storm)
	errs := make([]error, storm)
	for g := 0; g < storm; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			switch g % 4 {
			case 1:
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 5*time.Millisecond)
				defer cancel()
			case 2:
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 30*time.Millisecond)
				defer cancel()
			case 3:
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				cancel() // abandoned before the call
			}
			results[g], errs[g] = svc.AuthenticateContext(ctx, reqs[g%len(reqs)])
		}(g)
	}
	wg.Wait()

	var ok, typed int
	for g := 0; g < storm; g++ {
		if errs[g] == nil {
			ok++
			if !sameDecision(results[g], baseline[g%len(reqs)]) {
				t.Fatalf("request %d completed under chaos but diverged:\n%+v\n%+v",
					g, results[g], baseline[g%len(reqs)])
			}
			continue
		}
		typed++
		if !chaosTyped(errs[g], false) {
			t.Fatalf("request %d resolved to an untyped error: %v", g, errs[g])
		}
	}
	t.Logf("storm: %d bit-identical completions, %d typed failures", ok, typed)

	// The service must be fully serviceable once chaos stops.
	faultinject.Disable()
	for i, req := range reqs {
		after, err := svc.authenticate(req)
		if err != nil {
			t.Fatalf("post-chaos request %d failed: %v", i, err)
		}
		if !sameDecision(after, baseline[i]) {
			t.Fatalf("post-chaos request %d diverged:\n%+v\n%+v", i, after, baseline[i])
		}
	}
}

// TestChaosCloseMidStorm drains the service while a fault storm is in
// flight: every request must still resolve to a typed error (now including
// ErrClosed) or a bit-identical result, and Close must return.
func TestChaosCloseMidStorm(t *testing.T) {
	svc, err := New(Config{
		Core:        core.DefaultConfig(),
		Workers:     2,
		MaxSessions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := pairRequest(0.8, 90)
	baseline, err := svc.authenticate(req)
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Enable(7)
	defer faultinject.Disable()
	faultinject.Arm(faultinject.SiteServiceSession, faultinject.Fault{
		Action: faultinject.ActPanic, Prob: 0.25,
	})

	const storm = 16
	var wg sync.WaitGroup
	results := make([]*core.Result, storm)
	errs := make([]error, storm)
	for g := 0; g < storm; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = svc.authenticate(req)
		}(g)
	}
	// Let some of the storm land, then pull the plug.
	time.Sleep(5 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	wg.Wait()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close never returned with the storm resolved")
	}

	for g := 0; g < storm; g++ {
		if errs[g] == nil {
			if !sameDecision(results[g], baseline) {
				t.Fatalf("request %d completed during drain but diverged:\n%+v\n%+v",
					g, results[g], baseline)
			}
			continue
		}
		if !chaosTyped(errs[g], true) {
			t.Fatalf("request %d resolved to an untyped error: %v", g, errs[g])
		}
	}
}
