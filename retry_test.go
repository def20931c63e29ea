package piano

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/acoustic-auth/piano/internal/faultinject"
	"github.com/acoustic-auth/piano/internal/service"
)

// fastPolicy keeps retry tests quick: microsecond backoff, no jitter.
func fastPolicy(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   10 * time.Microsecond,
		MaxDelay:    100 * time.Microsecond,
	}
}

// TestRetryRecoversFromTransientOverload: shed twice at admission, the
// third attempt goes through, and the decision matches the unretried one
// bit-for-bit.
func TestRetryRecoversFromTransientOverload(t *testing.T) {
	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	req := serviceRequests()[0]
	want, err := svc.Authenticate(req)
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Enable(1)
	faultinject.Arm(faultinject.SiteServiceAcquire, faultinject.Fault{
		Action: faultinject.ActError, Err: service.ErrOverloaded, Times: 2,
	})
	dec, err := svc.AuthenticateWithRetry(context.Background(), req, fastPolicy(4))
	hits := faultinject.Hits(faultinject.SiteServiceAcquire)
	faultinject.Disable()
	if err != nil {
		t.Fatalf("retry across transient overload failed: %v", err)
	}
	if hits != 2 {
		t.Fatalf("admission fault fired %d times, want 2", hits)
	}
	if dec.Granted != want.Granted || dec.DistanceM != want.DistanceM {
		t.Fatalf("retried decision diverged: %+v vs %+v", dec, want)
	}
}

// TestRetryExhaustionKeepsSentinel: when every attempt is shed, the
// returned error reports the attempt budget and still matches
// ErrOverloaded via errors.Is.
func TestRetryExhaustionKeepsSentinel(t *testing.T) {
	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	req := serviceRequests()[0]

	faultinject.Enable(1)
	faultinject.Arm(faultinject.SiteServiceAcquire, faultinject.Fault{
		Action: faultinject.ActError, Err: service.ErrOverloaded,
	})
	_, err = svc.AuthenticateWithRetry(context.Background(), req, fastPolicy(3))
	hits := faultinject.Hits(faultinject.SiteServiceAcquire)
	faultinject.Disable()
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("exhausted retries returned %v, want ErrOverloaded in the chain", err)
	}
	if hits != 3 {
		t.Fatalf("admission attempted %d times, want exactly MaxAttempts=3", hits)
	}
}

// TestRetryOnlyOverloadRetries: final failures — ErrClosed here — return
// immediately after one attempt; backoff never applies to them.
func TestRetryOnlyOverloadRetries(t *testing.T) {
	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	req := serviceRequests()[0]

	faultinject.Enable(1)
	faultinject.Arm(faultinject.SiteServiceAcquire, faultinject.Fault{
		Action: faultinject.ActError, Err: service.ErrClosed,
	})
	_, err = svc.AuthenticateWithRetry(context.Background(), req, fastPolicy(5))
	hits := faultinject.Hits(faultinject.SiteServiceAcquire)
	faultinject.Disable()
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	if hits != 1 {
		t.Fatalf("non-retryable failure attempted %d times, want 1", hits)
	}

	// Validation failures don't consume attempts either.
	bad := req
	bad.Environment = 99
	if _, err := svc.AuthenticateWithRetry(context.Background(), bad, fastPolicy(5)); err == nil {
		t.Fatal("invalid request accepted")
	}
}

// TestRetryCtxCancelDuringBackoff: a context canceled while the policy is
// sleeping aborts the wait immediately with ctx.Err().
func TestRetryCtxCancelDuringBackoff(t *testing.T) {
	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	req := serviceRequests()[0]

	faultinject.Enable(1)
	faultinject.Arm(faultinject.SiteServiceAcquire, faultinject.Fault{
		Action: faultinject.ActError, Err: service.ErrOverloaded,
	})
	defer faultinject.Disable()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = svc.AuthenticateWithRetry(ctx, req, RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Hour,
		MaxDelay:    time.Hour,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancel during backoff took %v; the hour-long timer was not interrupted", took)
	}
}

// TestRetryPolicyValidation: negative fields and out-of-range jitter are
// rejected with ErrConfig before any attempt runs.
func TestRetryPolicyValidation(t *testing.T) {
	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	req := serviceRequests()[0]

	for i, p := range []RetryPolicy{
		{MaxAttempts: -1},
		{BaseDelay: -time.Second},
		{MaxDelay: -time.Second},
		{BaseDelay: time.Second, MaxDelay: time.Millisecond},
		{Multiplier: -2},
		{Multiplier: 0.5},
		{Jitter: -0.1},
		{Jitter: 1},
	} {
		if _, err := svc.AuthenticateWithRetry(context.Background(), req, p); !errors.Is(err, ErrConfig) {
			t.Errorf("policy %d %+v: got %v, want ErrConfig", i, p, err)
		}
	}
}

// TestRetryDeterministicBackoff: equal seeds draw equal jittered delays;
// different seeds diverge.
func TestRetryDeterministicBackoff(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		p := RetryPolicy{Jitter: 0.5, Seed: seed}.withDefaults()
		rng := rand.New(rand.NewSource(p.Seed))
		var ds []time.Duration
		for i := 0; i < 6; i++ {
			ds = append(ds, p.delay(i, rng))
		}
		return ds
	}
	a, b := schedule(7), schedule(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 replay diverged at retry %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := schedule(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 drew identical schedules; jitter is not seed-sensitive")
	}
	// The undithered schedule grows geometrically to the cap.
	p := RetryPolicy{}.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	for i, w := range want {
		if d := p.delay(i, rng); d != w {
			t.Fatalf("retry %d delay = %v, want %v", i, d, w)
		}
	}
	for i := 10; i < 13; i++ {
		if d := p.delay(i, rng); d != 2*time.Second {
			t.Fatalf("retry %d delay = %v, want the 2s cap", i, d)
		}
	}
}

// TestServiceLifecycleConfigSurfaces: the public ServiceConfig passes the
// lifecycle and sizing knobs through — a negative bound or count is
// rejected with ErrConfig naming the field (never read as a default or an
// unbounded queue), and an armed idle bound reaps an abandoned public
// streaming session with the re-exported sentinels.
func TestServiceLifecycleConfigSurfaces(t *testing.T) {
	for field, mutate := range map[string]func(*ServiceConfig){
		"SessionIdleTimeout": func(c *ServiceConfig) { c.SessionIdleTimeout = -time.Second },
		"Workers":            func(c *ServiceConfig) { c.Workers = -2 },
		"MaxSessions":        func(c *ServiceConfig) { c.MaxSessions = -1 },
		"MaxQueueDepth":      func(c *ServiceConfig) { c.MaxQueueDepth = -3 },
	} {
		bad := DefaultServiceConfig()
		mutate(&bad)
		svc, err := NewService(bad)
		if err == nil {
			svc.Close()
			t.Fatalf("negative %s accepted", field)
		}
		if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), field) {
			t.Fatalf("negative %s: got %v, want ErrConfig naming the field", field, err)
		}
	}

	cfg := DefaultServiceConfig()
	cfg.SessionIdleTimeout = 25 * time.Millisecond
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sess, err := svc.OpenSession(serviceRequests()[0])
	if err != nil {
		t.Fatal(err)
	}
	// Abandon it: never feed. The watchdog must resolve it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, err := sess.TryResult()
		if err != nil {
			if !errors.Is(err, ErrSessionStalled) || !errors.Is(err, ErrSessionReaped) {
				t.Fatalf("abandoned session resolved %v, want ErrSessionStalled (unwrapped passthrough)", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watchdog never reaped the abandoned public session")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The slot is back: a fresh batch call succeeds promptly.
	if _, err := svc.Authenticate(serviceRequests()[0]); err != nil {
		t.Fatalf("service unusable after a reaped session: %v", err)
	}
}
