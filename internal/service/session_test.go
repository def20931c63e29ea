package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/faultinject"
)

// feedSession drains both roles' recordings into the session in alternating
// chunks (two live microphones arriving concurrently), up to each role's
// limit (≤ 0 → the whole recording).
func feedSession(t *testing.T, sn *Session, chunk int, limitAuth, limitVouch int) {
	t.Helper()
	roles := []core.Role{core.RoleAuth, core.RoleVouch}
	limits := map[core.Role]int{core.RoleAuth: limitAuth, core.RoleVouch: limitVouch}
	at := map[core.Role]int{}
	for _, role := range roles {
		if limits[role] <= 0 {
			limits[role] = len(sn.Recording(role))
		}
	}
	for at[roles[0]] < limits[roles[0]] || at[roles[1]] < limits[roles[1]] {
		for _, role := range roles {
			if at[role] >= limits[role] {
				continue
			}
			end := at[role] + chunk
			if end > limits[role] {
				end = limits[role]
			}
			if err := sn.Feed(role, sn.Recording(role)[at[role]:end]); err != nil {
				t.Fatalf("feed %v [%d, %d): %v", role, at[role], end, err)
			}
			at[role] = end
		}
	}
}

// TestSessionEarlyDecision: the session must decide once both roles reach
// their horizons, with a real tail of both recordings never fed — and keep
// returning the cached decision afterwards.
func TestSessionEarlyDecision(t *testing.T) {
	svc := newService(t, 0)
	defer svc.Close()
	req := pairRequest(0.8, 43)
	want, err := svc.authenticate(req)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := svc.OpenSession(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ea, ev := sn.EarlyFeedLen(core.RoleAuth), sn.EarlyFeedLen(core.RoleVouch)
	if ea >= len(sn.Recording(core.RoleAuth)) || ev >= len(sn.Recording(core.RoleVouch)) {
		t.Fatalf("horizons (%d, %d) do not precede the recording ends (%d, %d)",
			ea, ev, len(sn.Recording(core.RoleAuth)), len(sn.Recording(core.RoleVouch)))
	}
	feedSession(t, sn, 4096, ea, ev)
	res, err := sn.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecision(res, want) {
		t.Fatalf("early decision diverged:\nearly %+v\nbatch %+v", res, want)
	}
	if err := sn.Feed(core.RoleAuth, sn.Recording(core.RoleAuth)[ea:]); !errors.Is(err, ErrStreamDecided) {
		t.Fatalf("post-decision feed returned %v, want ErrStreamDecided", err)
	}
	again, err := sn.Result()
	if err != nil || !sameDecision(again, want) {
		t.Fatalf("cached decision changed: %+v, %v", again, err)
	}
	if got := svc.Sessions(); got != 2 {
		t.Fatalf("completed sessions %d, want 2 (batch + stream)", got)
	}
}

// TestSessionFeedOverflowTyped is the streamed-PCM ingestion-bound
// regression test: a chunk overrunning the declared recording is rejected
// whole with ErrFeedOverflow and the session stays open and correct.
func TestSessionFeedOverflowTyped(t *testing.T) {
	svc := newService(t, 0)
	defer svc.Close()
	req := pairRequest(0.8, 47)
	want, err := svc.authenticate(req)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := svc.OpenSession(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	rec := sn.Recording(core.RoleAuth)
	over := make([]int16, len(rec)+1)
	copy(over, rec)
	if err := sn.Feed(core.RoleAuth, over); !errors.Is(err, ErrFeedOverflow) {
		t.Fatalf("over-length feed returned %v, want ErrFeedOverflow", err)
	}
	if got := sn.Fed(core.RoleAuth); got != 0 {
		t.Fatalf("rejected chunk ingested %d samples", got)
	}
	// The session is still usable and still exact.
	feedSession(t, sn, 4096, 0, 0)
	res, err := sn.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecision(res, want) {
		t.Fatalf("post-overflow decision diverged:\nstream %+v\nbatch  %+v", res, want)
	}
}

// TestSessionNeedMoreAudioTyped: Result before enough audio is a typed,
// retryable failure, not a decision.
func TestSessionNeedMoreAudioTyped(t *testing.T) {
	svc := newService(t, 0)
	defer svc.Close()
	sn, err := svc.OpenSession(context.Background(), pairRequest(0.8, 48))
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if _, err := sn.Result(); !errors.Is(err, ErrNeedMoreAudio) {
		t.Fatalf("empty session Result returned %v, want ErrNeedMoreAudio", err)
	}
	if _, need, err := sn.TryResult(); err != nil || need <= 0 {
		t.Fatalf("TryResult need=%d err=%v, want a positive need", need, err)
	}
}

// TestSessionSlotLifecycle: a streaming session holds one MaxSessions slot
// until it resolves; Close releases it for the next session.
func TestSessionSlotLifecycle(t *testing.T) {
	svc, err := New(Config{
		Core:          core.DefaultConfig(),
		Workers:       2,
		MaxSessions:   1,
		MaxQueueWait:  20 * time.Millisecond,
		MaxQueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	req := pairRequest(0.8, 51)

	sn, err := svc.OpenSession(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// The open (undecided) session occupies the only slot.
	if _, err := svc.authenticate(req); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second session got %v, want ErrOverloaded while the stream holds the slot", err)
	}
	sn.Close()
	if _, err := sn.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("closed session Result returned %v, want context.Canceled", err)
	}
	if err := sn.Feed(core.RoleAuth, make([]int16, 8)); !errors.Is(err, context.Canceled) {
		t.Fatalf("closed session Feed returned %v, want context.Canceled", err)
	}
	// The slot is free again.
	if _, err := svc.authenticate(req); err != nil {
		t.Fatalf("slot not released by Close: %v", err)
	}
}

// TestSessionContextCancelMidFeed: canceling the session context resolves
// an undecided session to the context error and frees its slot, mid-feed.
func TestSessionContextCancelMidFeed(t *testing.T) {
	svc := newService(t, 0)
	defer svc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	sn, err := svc.OpenSession(ctx, pairRequest(0.8, 52))
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if err := sn.Feed(core.RoleAuth, sn.Recording(core.RoleAuth)[:8192]); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := sn.Feed(core.RoleAuth, sn.Recording(core.RoleAuth)[8192:16384]); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel feed returned %v, want context.Canceled", err)
	}
	if _, err := sn.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel Result returned %v, want context.Canceled", err)
	}
}

// TestSessionServiceCloseResolvesOpenStreams: AuthService.Close must not
// deadlock behind a half-fed stream — it force-resolves open sessions to
// ErrClosed and drains.
func TestSessionServiceCloseResolvesOpenStreams(t *testing.T) {
	svc := newService(t, 2)
	sn, err := svc.OpenSession(context.Background(), pairRequest(0.8, 53))
	if err != nil {
		t.Fatal(err)
	}
	if err := sn.Feed(core.RoleAuth, sn.Recording(core.RoleAuth)[:4096]); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		svc.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked behind an open streaming session")
	}
	if _, err := sn.Result(); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained session Result returned %v, want ErrClosed", err)
	}
	if _, err := svc.OpenSession(context.Background(), pairRequest(0.8, 53)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close OpenSession returned %v, want ErrClosed", err)
	}
}

// errChaosFeed is the injected feed fault for the chaos suite.
var errChaosFeed = errors.New("chaos: injected feed fault")

// TestChaosStreamingFeedStorm extends the PR-6 chaos suite to the feed
// path: concurrent streaming sessions are fed while injected faults fail
// individual feeds, crash session goroutines, and stall scans; some callers
// cancel mid-feed, some Close mid-feed, and the service is drained by Close
// at the end. The invariant is the batch storm's: every session resolves to
// a typed error or to a decision bit-identical to its fault-free baseline,
// and the service stays serviceable until drained.
func TestChaosStreamingFeedStorm(t *testing.T) {
	svc, err := New(Config{
		Core:          core.DefaultConfig(),
		Workers:       2,
		MaxSessions:   3,
		MaxQueueWait:  200 * time.Millisecond,
		MaxQueueDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	reqs := make([]Request, 3)
	for i := range reqs {
		reqs[i] = pairRequest(0.5+0.4*float64(i), int64(60+i))
	}
	baseline := make([]*core.Result, len(reqs))
	for i, req := range reqs {
		if baseline[i], err = svc.authenticate(req); err != nil {
			t.Fatal(err)
		}
	}

	faultinject.Enable(29)
	defer faultinject.Disable()
	// Individual feed failures: the chunk is refused, the session stays
	// open, the feeder retries.
	faultinject.Arm(faultinject.SiteStreamFeed, faultinject.Fault{
		Action: faultinject.ActError, Err: errChaosFeed, Prob: 0.05,
	})
	// Session-goroutine crashes at open.
	faultinject.Arm(faultinject.SiteServiceSession, faultinject.Fault{
		Action: faultinject.ActPanic, Prob: 0.1,
	})
	// Slow-scan stalls inside the block grid.
	faultinject.Arm(faultinject.SiteDetectBlock, faultinject.Fault{
		Action: faultinject.ActDelay, Delay: 200 * time.Microsecond, Prob: 0.01, Skip: 5,
	})

	const storm = 12
	var wg sync.WaitGroup
	results := make([]*core.Result, storm)
	errs := make([]error, storm)
	for g := 0; g < storm; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if g%4 == 1 {
				// Mid-feed cancellation, racing the feed loop below.
				timer := time.AfterFunc(time.Duration(1+g)*time.Millisecond, cancel)
				defer timer.Stop()
			}
			sn, err := svc.OpenSession(ctx, reqs[g%len(reqs)])
			if err != nil {
				errs[g] = err
				return
			}
			roles := []core.Role{core.RoleAuth, core.RoleVouch}
			at := map[core.Role]int{}
			fed := 0
		feeding:
			for {
				advanced := false
				for _, role := range roles {
					rec := sn.Recording(role)
					if at[role] >= len(rec) {
						continue
					}
					end := at[role] + 2048
					if end > len(rec) {
						end = len(rec)
					}
					err := sn.Feed(role, rec[at[role]:end])
					switch {
					case err == nil:
						at[role] = end
						advanced = true
						fed++
					case errors.Is(err, errChaosFeed):
						// Chunk refused, session open: retry it.
						advanced = true
					default:
						errs[g] = err
						break feeding
					}
				}
				if g%4 == 2 && fed > 6 {
					// Abandon mid-feed.
					sn.Close()
					_, errs[g] = sn.Result()
					break feeding
				}
				if !advanced {
					results[g], errs[g] = sn.Result()
					break feeding
				}
			}
			if errs[g] != nil {
				sn.Close()
			}
		}(g)
	}
	wg.Wait()

	var ok, typed int
	for g := 0; g < storm; g++ {
		if errs[g] == nil {
			ok++
			if !sameDecision(results[g], baseline[g%len(reqs)]) {
				t.Fatalf("session %d completed under chaos but diverged:\n%+v\n%+v",
					g, results[g], baseline[g%len(reqs)])
			}
			continue
		}
		typed++
		if !chaosTyped(errs[g], true) {
			t.Fatalf("session %d resolved to an untyped error: %v", g, errs[g])
		}
	}
	t.Logf("streaming storm: %d bit-identical decisions, %d typed failures", ok, typed)

	// Fully serviceable once chaos stops: a fresh streamed session matches
	// its baseline.
	faultinject.Disable()
	sn, err := svc.OpenSession(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, sn, 4096, 0, 0)
	res, err := sn.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecision(res, baseline[0]) {
		t.Fatalf("post-chaos streamed session diverged:\n%+v\n%+v", res, baseline[0])
	}
}
