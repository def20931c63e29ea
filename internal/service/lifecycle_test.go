package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/faultinject"
)

// newLifecycleService builds a service with the lifecycle watchdog armed.
func newLifecycleService(t testing.TB, maxSessions int, idle, life time.Duration) *AuthService {
	t.Helper()
	svc, err := New(Config{
		Core:               core.DefaultConfig(),
		Workers:            2,
		MaxSessions:        maxSessions,
		SessionIdleTimeout: idle,
		SessionMaxLifetime: life,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// waitResolved polls the session until it resolves (decision or error) or
// the deadline passes.
func waitResolved(t *testing.T, sn *Session, within time.Duration) (*core.Result, error) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if res, err, done := sn.outcome(); done {
			return res, err
		}
		if time.Now().After(deadline) {
			t.Fatalf("session not resolved within %v", within)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertNoLeak is the slot-leak check behind the PR's acceptance criterion:
// with every session resolved, no streaming session may remain registered
// and no MaxSessions slot may still be held.
func assertNoLeak(t *testing.T, svc *AuthService) {
	t.Helper()
	svc.mu.Lock()
	open := len(svc.streams)
	svc.mu.Unlock()
	if open != 0 {
		t.Fatalf("%d streaming sessions still registered after resolution", open)
	}
	if held := len(svc.sem); held != 0 {
		t.Fatalf("%d of %d session slots still held after resolution", held, cap(svc.sem))
	}
}

// TestLifecycleConfigValidation: negative durations and counts are
// configuration bugs, not "unbounded" or "default". A negative
// MaxQueueWait or MaxQueueDepth used to silently disable its bound (the
// > 0 checks never armed it) and a negative Workers or MaxSessions fell
// back to its default — this is their regression test, extended to the
// lifecycle knobs. Each is a typed ErrConfig naming the field.
func TestLifecycleConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{Core: core.DefaultConfig(), Workers: 1}
	}
	mutations := map[string]func(*Config){
		"MaxQueueWait":       func(c *Config) { c.MaxQueueWait = -time.Second },
		"SessionIdleTimeout": func(c *Config) { c.SessionIdleTimeout = -time.Millisecond },
		"SessionMaxLifetime": func(c *Config) { c.SessionMaxLifetime = -time.Hour },
		"Workers":            func(c *Config) { c.Workers = -1 },
		"MaxSessions":        func(c *Config) { c.MaxSessions = -4 },
		"MaxQueueDepth":      func(c *Config) { c.MaxQueueDepth = -1 },
	}
	for name, mutate := range mutations {
		cfg := base()
		mutate(&cfg)
		svc, err := New(cfg)
		if err == nil {
			svc.Close()
			t.Fatalf("negative %s accepted", name)
		}
		if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), name) {
			t.Fatalf("negative %s rejected with %v, want ErrConfig naming the field", name, err)
		}
	}
	// The zero values still mean "legacy unbounded" and must keep working.
	svc, err := New(base())
	if err != nil {
		t.Fatalf("zero-valued lifecycle config rejected: %v", err)
	}
	svc.Close()
}

// TestLifecycleWatchdogInterval pins the sweep-cadence derivation: a
// quarter of the tightest enabled bound, clamped to [1ms, 1s], zero when
// disabled.
func TestLifecycleWatchdogInterval(t *testing.T) {
	cases := []struct {
		idle, life, gap, want time.Duration
	}{
		{0, 0, 0, 0},
		{40 * time.Millisecond, 0, 0, 10 * time.Millisecond},
		{0, 8 * time.Second, 0, time.Second},
		{40 * time.Millisecond, 8 * time.Millisecond, 0, 2 * time.Millisecond},
		{2 * time.Millisecond, 0, 0, time.Millisecond},
		{0, 0, 20 * time.Millisecond, 5 * time.Millisecond},
		{40 * time.Millisecond, 0, 8 * time.Millisecond, 2 * time.Millisecond},
	}
	for _, c := range cases {
		if got := watchdogInterval(c.idle, c.life, c.gap); got != c.want {
			t.Fatalf("watchdogInterval(%v, %v, %v) = %v, want %v", c.idle, c.life, c.gap, got, c.want)
		}
	}
}

// TestLifecycleStalledSessionReaped: a session opened and never fed is
// resolved with ErrSessionStalled (category ErrSessionReaped), its slot is
// released, and every later call reports the same typed error
// deterministically.
func TestLifecycleStalledSessionReaped(t *testing.T) {
	svc := newLifecycleService(t, 1, 30*time.Millisecond, 0)
	defer svc.Close()
	sn, err := svc.OpenSession(context.Background(), pairRequest(0.8, 71))
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := waitResolved(t, sn, 5*time.Second)
	if !errors.Is(rerr, ErrSessionStalled) {
		t.Fatalf("abandoned session resolved to %v, want ErrSessionStalled", rerr)
	}
	if !errors.Is(rerr, ErrSessionReaped) {
		t.Fatal("ErrSessionStalled does not match the ErrSessionReaped category")
	}
	// Feed and result calls after the reap return the stall error, every
	// time (the satellite determinism pin).
	for i := 0; i < 3; i++ {
		if err := sn.Feed(core.RoleAuth, make([]int16, 16)); !errors.Is(err, ErrSessionStalled) {
			t.Fatalf("post-reap Feed %d returned %v, want ErrSessionStalled", i, err)
		}
		if _, _, err := sn.TryResult(); !errors.Is(err, ErrSessionStalled) {
			t.Fatalf("post-reap TryResult %d returned %v, want ErrSessionStalled", i, err)
		}
	}
	// The slot is free again: a batch session fits through MaxSessions=1.
	if _, err := svc.Authenticate(pairRequest(0.8, 71)); err != nil {
		t.Fatalf("slot not released by the reap: %v", err)
	}
	assertNoLeak(t, svc)
}

// TestLifecycleExpiredSessionReaped: SessionMaxLifetime bounds the whole
// open→resolution span even for a session that keeps feeding — the
// trickle-feeder that the idle bound can never catch.
func TestLifecycleExpiredSessionReaped(t *testing.T) {
	svc := newLifecycleService(t, 1, 0, 60*time.Millisecond)
	defer svc.Close()
	sn, err := svc.OpenSession(context.Background(), pairRequest(0.8, 72))
	if err != nil {
		t.Fatal(err)
	}
	// Trickle-feed a few samples at a time until the watchdog fires.
	rec := sn.Recording(core.RoleAuth)
	at := 0
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := sn.Feed(core.RoleAuth, rec[at:at+8])
		if err == nil {
			at += 8
			time.Sleep(5 * time.Millisecond)
			if time.Now().After(deadline) {
				t.Fatal("session never expired")
			}
			continue
		}
		if !errors.Is(err, ErrSessionExpired) {
			t.Fatalf("trickle-fed session failed with %v, want ErrSessionExpired", err)
		}
		break
	}
	if _, rerr, done := sn.outcome(); !done || !errors.Is(rerr, ErrSessionExpired) || !errors.Is(rerr, ErrSessionReaped) {
		t.Fatalf("resolution = %v (done=%v), want ErrSessionExpired in the ErrSessionReaped category", rerr, done)
	}
	assertNoLeak(t, svc)
}

// TestLifecycleActiveFeederNotReaped: a client feeding within the idle
// bound must never be reaped — it decides, and bit-identically to batch.
func TestLifecycleActiveFeederNotReaped(t *testing.T) {
	svc := newLifecycleService(t, 2, 500*time.Millisecond, 0)
	defer svc.Close()
	req := pairRequest(0.8, 73)
	want, err := svc.Authenticate(req)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := svc.OpenSession(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// A paced feed, comfortably inside the bound.
	roles := []core.Role{core.RoleAuth, core.RoleVouch}
	at := map[core.Role]int{}
	for at[roles[0]] < len(sn.Recording(roles[0])) || at[roles[1]] < len(sn.Recording(roles[1])) {
		for _, role := range roles {
			rec := sn.Recording(role)
			if at[role] >= len(rec) {
				continue
			}
			end := at[role] + 32768
			if end > len(rec) {
				end = len(rec)
			}
			if err := sn.Feed(role, rec[at[role]:end]); err != nil {
				t.Fatalf("active feeder failed: %v", err)
			}
			at[role] = end
		}
		time.Sleep(2 * time.Millisecond)
	}
	res, err := sn.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecision(res, want) {
		t.Fatalf("watchdog-supervised decision diverged:\nstream %+v\nbatch  %+v", res, want)
	}
	assertNoLeak(t, svc)
}

// TestLifecycleRejectedFeedsDoNotResetIdleClock: refused chunks are not
// progress — a client spamming over-length feeds still stalls out.
func TestLifecycleRejectedFeedsDoNotResetIdleClock(t *testing.T) {
	svc := newLifecycleService(t, 1, 40*time.Millisecond, 0)
	defer svc.Close()
	sn, err := svc.OpenSession(context.Background(), pairRequest(0.8, 74))
	if err != nil {
		t.Fatal(err)
	}
	over := make([]int16, len(sn.Recording(core.RoleAuth))+1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := sn.Feed(core.RoleAuth, over)
		if errors.Is(err, ErrFeedOverflow) {
			time.Sleep(4 * time.Millisecond)
			if time.Now().After(deadline) {
				t.Fatal("overflow-spamming session never stalled out")
			}
			continue
		}
		if !errors.Is(err, ErrSessionStalled) {
			t.Fatalf("overflow spam ended with %v, want ErrSessionStalled", err)
		}
		break
	}
	assertNoLeak(t, svc)
}

// TestLifecycleSlotLeakStorm is the acceptance-criterion leak proof: a
// storm of N ≫ MaxSessions abandoned and half-fed sessions, every one
// reaped by the watchdog, and afterwards every MaxSessions slot is
// demonstrably reusable at once.
func TestLifecycleSlotLeakStorm(t *testing.T) {
	const maxSessions = 4
	const storm = 24
	svc := newLifecycleService(t, maxSessions, 25*time.Millisecond, 0)
	defer svc.Close()

	var wg sync.WaitGroup
	errs := make([]error, storm)
	for g := 0; g < storm; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// MaxQueueWait is 0 (indefinite): every open eventually gets a
			// slot freed by a reap — the recovery this test proves.
			sn, err := svc.OpenSession(context.Background(), pairRequest(0.8, int64(100+g)))
			if err != nil {
				errs[g] = err
				return
			}
			if g%2 == 1 {
				// Half-fed, then silence: a client that died mid-stream.
				rec := sn.Recording(core.RoleAuth)
				if err := sn.Feed(core.RoleAuth, rec[:4096]); err != nil {
					errs[g] = err
					return
				}
			}
			// Abandon: no Close, no further feeds. Wait for the watchdog.
			deadline := time.Now().Add(10 * time.Second)
			for {
				if _, rerr, done := sn.outcome(); done {
					errs[g] = rerr
					return
				}
				if time.Now().After(deadline) {
					errs[g] = errors.New("session never reaped")
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if !errors.Is(err, ErrSessionReaped) {
			t.Fatalf("storm session %d resolved to %v, want an ErrSessionReaped-category error", g, err)
		}
	}
	assertNoLeak(t, svc)

	// All MaxSessions slots must be usable simultaneously. assertNoLeak
	// above proved none is held; now a full complement of concurrent batch
	// sessions (same slot semaphore, no idle constraint) must each hold a
	// slot and complete — with MaxQueueWait unbounded, a leaked slot would
	// hang this forever instead of passing.
	var fg sync.WaitGroup
	ferrs := make([]error, maxSessions)
	for i := 0; i < maxSessions; i++ {
		fg.Add(1)
		go func(i int) {
			defer fg.Done()
			_, ferrs[i] = svc.Authenticate(pairRequest(0.8, int64(200+i)))
		}(i)
	}
	fg.Wait()
	for i, err := range ferrs {
		if err != nil {
			t.Fatalf("post-storm session %d failed: %v", i, err)
		}
	}
	assertNoLeak(t, svc)
}

// TestLifecycleResolutionRaces is the satellite race pin: concurrent
// Close + Feed + TryResult (plus a double Close) on the same session must
// resolve it to exactly one typed outcome, release the slot exactly once,
// and keep reporting that outcome afterwards. Run under -race.
func TestLifecycleResolutionRaces(t *testing.T) {
	svc := newLifecycleService(t, 2, 200*time.Millisecond, 0)
	defer svc.Close()
	for round := 0; round < 8; round++ {
		sn, err := svc.OpenSession(context.Background(), pairRequest(0.8, int64(300+round)))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		rec := sn.Recording(core.RoleAuth)
		wg.Add(4)
		go func() { defer wg.Done(); <-start; sn.Close() }()
		go func() { defer wg.Done(); <-start; sn.Close() }() // double Close
		go func() {
			defer wg.Done()
			<-start
			at := 0
			for at < len(rec) {
				end := at + 2048
				if end > len(rec) {
					end = len(rec)
				}
				if err := sn.Feed(core.RoleAuth, rec[at:end]); err != nil {
					return
				}
				at = end
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 64; i++ {
				if _, _, err := sn.TryResult(); err != nil {
					return
				}
			}
		}()
		close(start)
		wg.Wait()
		_, rerr, done := sn.outcome()
		if !done {
			t.Fatalf("round %d: session unresolved after Close raced Feed/TryResult", round)
		}
		if !errors.Is(rerr, context.Canceled) {
			t.Fatalf("round %d: raced Close resolved to %v, want context.Canceled", round, rerr)
		}
		// The outcome is sticky: every later call agrees.
		if err := sn.Feed(core.RoleAuth, rec[:16]); !errors.Is(err, rerr) {
			t.Fatalf("round %d: post-race Feed returned %v, want %v", round, err, rerr)
		}
		if _, err := sn.Result(); !errors.Is(err, rerr) {
			t.Fatalf("round %d: post-race Result returned %v, want %v", round, err, rerr)
		}
		assertNoLeak(t, svc)
	}
}

// lifecycleTyped reports whether err is one of the typed outcomes a
// lifecycle-storm session may resolve to.
func lifecycleTyped(err error) bool {
	switch {
	case errors.Is(err, ErrSessionReaped),
		errors.Is(err, ErrClosed),
		errors.Is(err, ErrOverloaded),
		errors.Is(err, ErrInternal),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return true
	}
	return false
}

// TestChaosLifecycleStorm is the lifecycle chaos scenario: a small service
// under a concurrent storm of healthy feeders, slow feeders (inter-chunk
// gaps past SessionIdleTimeout), and mid-feed abandoners — while injected
// faults panic the watchdog's own sweeps (recovered; the watchdog must
// survive its own crashes). Invariants: every session resolves to a typed
// error or a decision bit-identical to its fault-free baseline, no slot
// leaks, and the service stays serviceable afterwards. Run under -race.
func TestChaosLifecycleStorm(t *testing.T) {
	svc, err := New(Config{
		Core:               core.DefaultConfig(),
		Workers:            2,
		MaxSessions:        3,
		SessionIdleTimeout: 40 * time.Millisecond,
		SessionMaxLifetime: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	reqs := make([]Request, 3)
	baseline := make([]*core.Result, len(reqs))
	for i := range reqs {
		reqs[i] = pairRequest(0.5+0.4*float64(i), int64(400+i))
		if baseline[i], err = svc.Authenticate(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}

	faultinject.Enable(31)
	defer faultinject.Disable()
	// Panicking sweeps: the watchdog must recover and keep reaping.
	faultinject.Arm(faultinject.SiteServiceWatchdog, faultinject.Fault{
		Action: faultinject.ActPanic, Prob: 0.3,
	})

	const storm = 12
	var wg sync.WaitGroup
	results := make([]*core.Result, storm)
	errs := make([]error, storm)
	for g := 0; g < storm; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sn, err := svc.OpenSession(context.Background(), reqs[g%len(reqs)])
			if err != nil {
				errs[g] = err
				return
			}
			roles := []core.Role{core.RoleAuth, core.RoleVouch}
			at := map[core.Role]int{}
			chunks := 0
			for {
				advanced := false
				for _, role := range roles {
					rec := sn.Recording(role)
					if at[role] >= len(rec) {
						continue
					}
					end := at[role] + 8192
					if end > len(rec) {
						end = len(rec)
					}
					if err := sn.Feed(role, rec[at[role]:end]); err != nil {
						errs[g] = err
						return
					}
					at[role] = end
					advanced = true
					chunks++
				}
				switch g % 3 {
				case 1:
					// Slow feeder: inter-chunk gaps past the idle bound.
					time.Sleep(60 * time.Millisecond)
				case 2:
					if chunks > 4 {
						// Abandon mid-feed: stop feeding, await the reap.
						deadline := time.Now().Add(15 * time.Second)
						for {
							if _, rerr, done := sn.outcome(); done {
								errs[g] = rerr
								return
							}
							if time.Now().After(deadline) {
								errs[g] = errors.New("abandoned session never reaped")
								return
							}
							time.Sleep(2 * time.Millisecond)
						}
					}
				}
				if !advanced {
					results[g], errs[g] = sn.Result()
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var ok, typed int
	for g := 0; g < storm; g++ {
		if errs[g] == nil {
			ok++
			if !sameDecision(results[g], baseline[g%len(reqs)]) {
				t.Fatalf("session %d completed under lifecycle chaos but diverged:\n%+v\n%+v",
					g, results[g], baseline[g%len(reqs)])
			}
			continue
		}
		typed++
		if !lifecycleTyped(errs[g]) {
			t.Fatalf("session %d resolved to an untyped error: %v", g, errs[g])
		}
	}
	if hits := faultinject.Hits(faultinject.SiteServiceWatchdog); hits == 0 {
		t.Fatal("storm never exercised a watchdog-sweep fault")
	}
	t.Logf("lifecycle storm: %d bit-identical decisions, %d typed failures", ok, typed)
	assertNoLeak(t, svc)

	// Serviceable once chaos stops: a fresh streamed session, fed promptly,
	// matches its baseline.
	faultinject.Disable()
	sn, err := svc.OpenSession(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, role := range []core.Role{core.RoleAuth, core.RoleVouch} {
		if err := sn.Feed(role, sn.Recording(role)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sn.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecision(res, baseline[0]) {
		t.Fatalf("post-chaos streamed session diverged:\n%+v\n%+v", res, baseline[0])
	}
	assertNoLeak(t, svc)
}

// TestChaosLifecycleWatchdogCloseRace races slowed watchdog sweeps against
// Close: sessions reaped by a sweep that started before Close and sessions
// force-resolved by Close must both end typed, the first resolver must win
// exactly once per session (slots released exactly once), and Close must
// return with no goroutine left behind. Run under -race.
func TestChaosLifecycleWatchdogCloseRace(t *testing.T) {
	for round := 0; round < 6; round++ {
		svc, err := New(Config{
			Core:               core.DefaultConfig(),
			Workers:            2,
			MaxSessions:        3,
			SessionIdleTimeout: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Enable(int64(500 + round))
		// Slow sweeps: each sweep holds faultinject for a few ms, so Close
		// reliably lands mid-sweep in some rounds and between sweeps in
		// others (the round index staggers the overlap).
		faultinject.Arm(faultinject.SiteServiceWatchdog, faultinject.Fault{
			Action: faultinject.ActDelay, Delay: 3 * time.Millisecond,
		})
		open := make([]*Session, 3)
		for i := range open {
			sn, err := svc.OpenSession(context.Background(), pairRequest(0.8, int64(600+i)))
			if err != nil {
				t.Fatalf("round %d open %d: %v", round, i, err)
			}
			open[i] = sn
		}
		time.Sleep(time.Duration(2+3*round) * time.Millisecond)
		done := make(chan struct{})
		go func() {
			svc.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: Close deadlocked against the watchdog", round)
		}
		for i, sn := range open {
			_, rerr, resolved := sn.outcome()
			if !resolved {
				t.Fatalf("round %d session %d unresolved after Close", round, i)
			}
			if !errors.Is(rerr, ErrClosed) && !errors.Is(rerr, ErrSessionReaped) {
				t.Fatalf("round %d session %d resolved to %v, want ErrClosed or an ErrSessionReaped-category error",
					round, i, rerr)
			}
		}
		assertNoLeak(t, svc)
		faultinject.Disable()
	}
}
