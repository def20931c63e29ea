package piano

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// undersizedService builds a service deliberately too small for the load
// the retry tests throw at it: one worker, one session slot, a one-deep
// admission queue with a short wait — most of a concurrent burst sheds with
// ErrOverloaded at the door.
func undersizedService(t *testing.T) *Service {
	t.Helper()
	cfg := DefaultServiceConfig()
	cfg.Workers = 1
	cfg.MaxSessions = 1
	cfg.MaxQueueDepth = 1
	cfg.MaxQueueWait = 2 * time.Millisecond
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// burst fires `clients` concurrent authentication calls and reports the
// outcomes. Every failure must be typed — a load test's first job is to
// prove no session ever ends in an unclassifiable state.
func burst(t *testing.T, svc *Service, clients int, policy *RetryPolicy) (completed, shed int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := AuthRequest{
				Auth:  DeviceSpec{Name: "hub", X: 0, Y: 0, ClockSkewPPM: 15},
				Vouch: DeviceSpec{Name: fmt.Sprintf("watch-%d", i), X: 0.3 + 0.1*float64(i), Y: 0, ClockSkewPPM: -20},
				Seed:  int64(300 + i),
			}
			if policy != nil {
				p := *policy
				p.Seed = req.Seed // per-client schedule, desynchronized but replayable
				_, errs[i] = svc.AuthenticateWithRetry(context.Background(), req, p)
			} else {
				_, errs[i] = svc.Authenticate(req)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		switch {
		case err == nil:
			completed++
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			t.Errorf("client %d ended untyped: %v", i, err)
		}
	}
	return completed, shed
}

// TestRetryLoadRecoversSheds is the client-backoff integration test: a
// burst of concurrent clients against an undersized service sheds most of
// the burst at admission; the same burst under AuthenticateWithRetry
// recovers a measured fraction of those sheds by backing off and
// re-offering while the service drains. Every session — retried or not —
// ends typed-or-success.
func TestRetryLoadRecoversSheds(t *testing.T) {
	const clients = 12
	svc := undersizedService(t)
	defer svc.Close()

	// One session's service time on this service (warm, uncontended): the
	// backoff below scales with it, so the retry horizon spans several
	// service times however slow the build (-race) or the machine.
	start := time.Now()
	if _, err := svc.Authenticate(AuthRequest{
		Auth:  DeviceSpec{Name: "hub", X: 0, Y: 0, ClockSkewPPM: 15},
		Vouch: DeviceSpec{Name: "watch", X: 0.3, Y: 0, ClockSkewPPM: -20},
		Seed:  299,
	}); err != nil {
		t.Fatal(err)
	}
	serviceTime := time.Since(start)

	// Pass 1, no retries: with one slot and a one-deep queue, at least
	// clients-2 of the burst must shed at the door.
	completed, shed := burst(t, svc, clients, nil)
	if shed < clients-2 {
		t.Fatalf("undersized service shed only %d/%d of an unretried burst", shed, clients)
	}
	if completed+shed != clients {
		t.Fatalf("sessions unaccounted for: %d completed + %d shed != %d", completed, shed, clients)
	}

	// Pass 2, with retries: generous attempt budget, jittered backoff so the
	// shed clients re-offer staggered instead of stampeding back in step.
	// The first retry waits about one service time and the cap is four, so
	// the nine retries span ~30 service times.
	policy := &RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   serviceTime,
		MaxDelay:    4 * serviceTime,
		Jitter:      0.4,
	}
	completedR, shedR := burst(t, svc, clients, policy)
	if completedR+shedR != clients {
		t.Fatalf("retried sessions unaccounted for: %d completed + %d shed != %d", completedR, shedR, clients)
	}
	if completedR <= completed {
		t.Fatalf("retries recovered nothing: %d/%d completed without retry, %d/%d with",
			completed, clients, completedR, clients)
	}
	if shedR >= shed {
		t.Fatalf("retries did not reduce sheds: %d without, %d with", shed, shedR)
	}
	t.Logf("service time %v; unretried: %d/%d completed; with retry: %d/%d (recovered %d sheds)",
		serviceTime, completed, clients, completedR, clients, completedR-completed)
}

// TestRetryLoadScheduleDeterministic: the backoff schedule a shed client
// walks is a pure function of (policy, seed) — replaying a load run replays
// its retry timing too.
func TestRetryLoadScheduleDeterministic(t *testing.T) {
	p := RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    80 * time.Millisecond,
		Jitter:      0.4,
		Seed:        307,
	}.withDefaults()
	a, b := rand.New(rand.NewSource(p.Seed)), rand.New(rand.NewSource(p.Seed))
	other := rand.New(rand.NewSource(p.Seed + 1))
	diverged := false
	for i := 0; i < p.MaxAttempts-1; i++ {
		da, db := p.delay(i, a), p.delay(i, b)
		if da != db {
			t.Fatalf("retry %d: delay %v != %v for the same seed", i, da, db)
		}
		if da != p.delay(i, other) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("neighboring seeds drew identical jittered schedules")
	}
}
