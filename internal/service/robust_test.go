package service

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/faultinject"
)

// blockSession arms the session fault site so the next session parks in
// its open phase (holding its slot) until release is closed. Returns a channel
// that closes once the session has entered the hook.
func blockSession(t *testing.T, release chan struct{}) chan struct{} {
	t.Helper()
	entered := make(chan struct{})
	faultinject.Arm(faultinject.SiteServiceSession, faultinject.Fault{
		Action: faultinject.ActHook,
		Times:  1,
		Hook: func() {
			close(entered)
			<-release
		},
	})
	return entered
}

// waitWaiters polls until the slot queue holds n waiters.
func waitWaiters(t *testing.T, svc *AuthService, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		svc.mu.Lock()
		w := svc.waiters
		svc.mu.Unlock()
		if w == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters (at %d)", n, w)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServiceRejectsNonFiniteThreshold: NaN passes a plain `< 0` check, so
// τ validation must reject non-finite values explicitly (PR-6 satellite).
func TestServiceRejectsNonFiniteThreshold(t *testing.T) {
	svc := newService(t, 1)
	defer svc.Close()
	for _, tau := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		req := pairRequest(0.8, 2)
		req.ThresholdM = tau
		if _, err := svc.authenticate(req); err == nil {
			t.Fatalf("threshold %g accepted", tau)
		}
	}
}

// TestServiceRejectsUnknownEnvironment: an environment override must name a
// defined scenario — unknown values error instead of silently mapping to
// some profile.
func TestServiceRejectsUnknownEnvironment(t *testing.T) {
	svc := newService(t, 1)
	defer svc.Close()
	for _, env := range []int{-1, 6, 99} {
		req := pairRequest(0.8, 2)
		req.Environment = acoustic.Environment(env)
		if _, err := svc.authenticate(req); err == nil {
			t.Fatalf("environment %d accepted", env)
		}
	}
}

// TestServiceOverloadQueueWait: with every slot busy, a request waits at
// most MaxQueueWait and then sheds with ErrOverloaded — within latency
// bounds on both sides (it must actually wait, and must not hang).
func TestServiceOverloadQueueWait(t *testing.T) {
	const wait = 50 * time.Millisecond
	svc, err := New(Config{Core: core.DefaultConfig(), Workers: 1, MaxSessions: 1, MaxQueueWait: wait})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	faultinject.Enable(1)
	defer faultinject.Disable()
	release := make(chan struct{})
	entered := blockSession(t, release)
	hold := make(chan error, 1)
	go func() {
		_, err := svc.authenticate(pairRequest(0.8, 2))
		hold <- err
	}()
	<-entered

	start := time.Now()
	_, err = svc.authenticate(pairRequest(0.8, 3))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated service returned %v, want ErrOverloaded", err)
	}
	if elapsed < wait {
		t.Fatalf("shed after %v, before MaxQueueWait %v", elapsed, wait)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("shed took %v — not a bounded wait", elapsed)
	}

	close(release)
	if err := <-hold; err != nil {
		t.Fatalf("slot-holding session failed: %v", err)
	}
}

// TestServiceOverloadQueueDepth: a request arriving at a full wait queue is
// shed immediately, and a queued waiter can abandon the queue via its
// context.
func TestServiceOverloadQueueDepth(t *testing.T) {
	svc, err := New(Config{Core: core.DefaultConfig(), Workers: 1, MaxSessions: 1, MaxQueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	faultinject.Enable(1)
	defer faultinject.Disable()
	release := make(chan struct{})
	entered := blockSession(t, release)
	hold := make(chan error, 1)
	go func() {
		_, err := svc.authenticate(pairRequest(0.8, 2))
		hold <- err
	}()
	<-entered

	// Fill the (depth-1) queue with a cancellable waiter.
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := svc.AuthenticateContext(ctx, pairRequest(0.8, 3))
		queued <- err
	}()
	waitWaiters(t, svc, 1)

	// The queue is full: the next request sheds with no waiting at all.
	start := time.Now()
	if _, err := svc.authenticate(pairRequest(0.8, 4)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue returned %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("immediate shed took %v", elapsed)
	}

	// The queued waiter gives up: it must return its ctx.Err(), not a slot.
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
	}

	close(release)
	if err := <-hold; err != nil {
		t.Fatalf("slot-holding session failed: %v", err)
	}
}

// TestServiceCancelMidScan: cancellation landing in the middle of a scan's
// block grid aborts the session with ctx.Err(), frees its slot, and leaves
// the service producing bit-identical results afterwards.
func TestServiceCancelMidScan(t *testing.T) {
	svc := newService(t, 1)
	defer svc.Close()
	req := pairRequest(0.8, 7)
	clean, err := svc.authenticate(req)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Enable(1)
	faultinject.Arm(faultinject.SiteDetectBlock, faultinject.Fault{
		Action: faultinject.ActHook, Skip: 5, Times: 1, Hook: cancel,
	})
	if _, err := svc.AuthenticateContext(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-scan cancel returned %v, want context.Canceled", err)
	}
	if faultinject.Hits(faultinject.SiteDetectBlock) != 1 {
		t.Fatal("cancellation hook never fired inside the scan")
	}
	faultinject.Disable()

	after, err := svc.authenticate(req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after.DistanceM) != math.Float64bits(clean.DistanceM) ||
		after.Granted != clean.Granted || after.Reason != clean.Reason {
		t.Fatalf("post-cancel session diverged: %+v != %+v", after, clean)
	}
}

// TestServicePreCanceledContext: a context already canceled at call time
// returns ctx.Err() without running the session.
func TestServicePreCanceledContext(t *testing.T) {
	svc := newService(t, 1)
	defer svc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.AuthenticateContext(ctx, pairRequest(0.8, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled request returned %v, want context.Canceled", err)
	}
	if got := svc.Sessions(); got != 0 {
		t.Fatalf("canceled request counted as a session (%d)", got)
	}
}

// TestServicePanicIsolation: panics at every layer of the pipeline — the
// session goroutine and the scan engine — surface as ErrInternal with a
// stack, and the service keeps producing bit-identical results.
func TestServicePanicIsolation(t *testing.T) {
	svc := newService(t, 2)
	defer svc.Close()
	req := pairRequest(0.8, 9)
	clean, err := svc.authenticate(req)
	if err != nil {
		t.Fatal(err)
	}

	for _, site := range []string{faultinject.SiteServiceSession, faultinject.SiteDetectBlock} {
		faultinject.Enable(1)
		faultinject.Arm(site, faultinject.Fault{Action: faultinject.ActPanic, Times: 1})
		_, err := svc.authenticate(req)
		if !errors.Is(err, ErrInternal) {
			t.Fatalf("site %s: panic returned %v, want ErrInternal", site, err)
		}
		var ie *InternalError
		if !errors.As(err, &ie) || len(ie.Stack) == 0 {
			t.Fatalf("site %s: error %v carries no *InternalError with stack", site, err)
		}
		faultinject.Disable()

		after, err := svc.authenticate(req)
		if err != nil {
			t.Fatalf("site %s: post-panic session failed: %v", site, err)
		}
		if math.Float64bits(after.DistanceM) != math.Float64bits(clean.DistanceM) ||
			after.Granted != clean.Granted || after.Reason != clean.Reason {
			t.Fatalf("site %s: post-panic session diverged: %+v != %+v", site, after, clean)
		}
	}
}

// TestServiceCloseLeavesNoGoroutines: scan helpers are transient and the
// lifecycle watchdog exits with Close, so once Close returns a service that
// ran batch, chunk-fed and framed sessions — plus one whose scan panicked,
// and one left half-fed for Close to resolve — has left no goroutine
// running. GOMAXPROCS 4 makes every scan recruit helpers.
func TestServiceCloseLeavesNoGoroutines(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	before := runtime.NumGoroutine()

	svc, err := New(Config{Core: core.DefaultConfig(), Workers: 2, SessionIdleTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.authenticate(pairRequest(0.8, 71)); err != nil {
		t.Fatal(err)
	}
	chunked, err := svc.OpenSession(context.Background(), pairRequest(0.8, 72))
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, chunked, 4000, 0, 0)
	if _, err := chunked.Result(); err != nil {
		t.Fatal(err)
	}
	framed, err := svc.OpenSession(context.Background(), pairRequest(0.8, 73))
	if err != nil {
		t.Fatal(err)
	}
	feedCleanWire(t, framed, core.RoleAuth, 73)
	feedCleanWire(t, framed, core.RoleVouch, 74)
	if _, err := framed.Result(); err != nil {
		t.Fatal(err)
	}

	faultinject.Enable(1)
	faultinject.Arm(faultinject.SiteDetectBlock, faultinject.Fault{Action: faultinject.ActPanic, Skip: 2, Times: 1})
	_, err = svc.authenticate(pairRequest(0.8, 75))
	faultinject.Disable()
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("scan panic returned %v, want ErrInternal", err)
	}

	open, err := svc.OpenSession(context.Background(), pairRequest(0.8, 76))
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, open, 4000, 4000, 4000)
	svc.Close()
	if _, err := open.Result(); !errors.Is(err, ErrClosed) {
		t.Fatalf("half-fed session after Close returned %v, want ErrClosed", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the service:\n%s", n, before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceCloseShedsWaiters: the PR-6 Close/begin race regression — a
// request already past inFlight.Add(1) but still waiting for a slot when
// Close begins must observe the drain and return ErrClosed promptly, not be
// admitted to run a full session mid-drain.
func TestServiceCloseShedsWaiters(t *testing.T) {
	svc, err := New(Config{Core: core.DefaultConfig(), Workers: 1, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Enable(1)
	defer faultinject.Disable()
	release := make(chan struct{})
	entered := blockSession(t, release)
	hold := make(chan error, 1)
	go func() {
		_, err := svc.authenticate(pairRequest(0.8, 2))
		hold <- err
	}()
	<-entered

	queued := make(chan error, 1)
	go func() {
		_, err := svc.authenticate(pairRequest(0.8, 3))
		queued <- err
	}()
	waitWaiters(t, svc, 1)

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()

	// The waiter must shed with ErrClosed while the admitted session still
	// holds its slot — i.e. before the drain can possibly hand it the slot.
	select {
	case err := <-queued:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("waiter at Close returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still queued 5 s after Close began")
	}

	// The already-admitted session drains to completion.
	close(release)
	if err := <-hold; err != nil {
		t.Fatalf("in-flight session failed during drain: %v", err)
	}
	<-closed
	if _, err := svc.authenticate(pairRequest(0.8, 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close authenticate returned %v, want ErrClosed", err)
	}
}

// TestServiceSeedSweepAcrossGOMAXPROCS: the determinism half of the PR-6
// contract — a seed sweep must decide bit-identically when the runtime is
// given different parallelism budgets.
func TestServiceSeedSweepAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("GOMAXPROCS sweep is slow")
	}
	seeds := []int64{21, 22, 23}
	run := func(procs int) []*core.Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		svc := newService(t, 2)
		defer svc.Close()
		out := make([]*core.Result, len(seeds))
		for i, seed := range seeds {
			res, err := svc.authenticate(pairRequest(0.4+0.3*float64(i), seed))
			if err != nil {
				t.Fatalf("procs=%d seed=%d: %v", procs, seed, err)
			}
			out[i] = res
		}
		return out
	}
	base := run(1)
	for _, procs := range []int{2, 4} {
		got := run(procs)
		for i := range seeds {
			if math.Float64bits(got[i].DistanceM) != math.Float64bits(base[i].DistanceM) ||
				got[i].Granted != base[i].Granted || got[i].Reason != base[i].Reason {
				t.Fatalf("seed %d: GOMAXPROCS=%d %+v != GOMAXPROCS=1 %+v", seeds[i], procs, got[i], base[i])
			}
			if base[i].Session != nil && *got[i].Session != *base[i].Session {
				t.Fatalf("seed %d: GOMAXPROCS=%d session diverged", seeds[i], procs)
			}
		}
	}
}

// TestShardDeterminism keeps the name it had as the acceptance test of the
// former sharded engine; its property holds for the one engine the service
// now owns. The same request set decides bit-identically (Float64bits on
// the measured distance, plus the full session report) against a serial
// baseline under GOMAXPROCS 1, 2, 4 and 8, with the sessions running
// concurrently through the one shared detector and workspace freelist, and the
// first request also decides identically as a streamed session. Runs under
// -race in CI.
func TestShardDeterminism(t *testing.T) {
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = pairRequest(0.4+0.5*float64(i), int64(90+i))
	}
	reqs[1].Interferers = []DeviceSpec{{Name: "other-user", X: 2.1, Y: 1.3}}

	ref := newService(t, 2)
	want := make([]*core.Result, len(reqs))
	for i, req := range reqs {
		res, err := ref.authenticate(req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	ref.Close()

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4, 8} {
		if testing.Short() && procs != 1 && procs != 4 {
			continue
		}
		runtime.GOMAXPROCS(procs)
		svc := newService(t, 2)

		var wg sync.WaitGroup
		results := make([]*core.Result, len(reqs))
		errs := make([]error, len(reqs))
		for i := range reqs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = svc.authenticate(reqs[i])
			}(i)
		}
		wg.Wait()

		sn, err := svc.OpenSession(context.Background(), reqs[0])
		if err != nil {
			t.Fatalf("procs=%d stream: %v", procs, err)
		}
		feedSession(t, sn, 4096, 0, 0)
		streamed, err := sn.Result()
		if err != nil {
			t.Fatalf("procs=%d stream: %v", procs, err)
		}
		svc.Close()

		for i := range reqs {
			if errs[i] != nil {
				t.Fatalf("procs=%d request %d: %v", procs, i, errs[i])
			}
			if !sameDecision(results[i], want[i]) {
				t.Fatalf("procs=%d request %d: concurrent decision diverged:\ngot  %+v\nbase %+v", procs, i, results[i], want[i])
			}
		}
		if !sameDecision(streamed, want[0]) {
			t.Fatalf("procs=%d: streamed decision diverged:\nstream %+v\nbase   %+v", procs, streamed, want[0])
		}
	}
}
