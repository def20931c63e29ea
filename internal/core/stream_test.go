package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/acoustic-auth/piano/internal/bluetooth"
)

// openStream opens a seeded streaming session between a 0.8 m pair — the
// streaming twin of runSession's setup, so the two are oracle-comparable
// per seed.
func openStream(t *testing.T, seed int64) *SessionStream {
	t.Helper()
	cfg := DefaultConfig()
	auth, vouch := newPair(t, 0.8, true)
	la, lv, err := bluetooth.Pair(auth, vouch, cfg.BTLatency, cfg.BTRangeM)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := OpenACTIONStream(SessionDeps{}, cfg, auth, vouch, la, lv, rand.New(rand.NewSource(seed)), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// feedInterleaved feeds both roles' recordings in alternating chunks (the
// shape of two live microphones draining concurrently), up to each role's
// given limit.
func feedInterleaved(t *testing.T, ss *SessionStream, chunk int, limit [2]int) {
	t.Helper()
	at := [2]int{}
	for at[RoleAuth] < limit[RoleAuth] || at[RoleVouch] < limit[RoleVouch] {
		for _, role := range []Role{RoleAuth, RoleVouch} {
			if at[role] >= limit[role] {
				continue
			}
			end := at[role] + chunk
			if end > limit[role] {
				end = limit[role]
			}
			if err := ss.Feed(role, ss.Recording(role)[at[role]:end]); err != nil {
				t.Fatalf("feed %s [%d, %d): %v", role, at[role], end, err)
			}
			at[role] = end
		}
	}
}

func fullLimits(ss *SessionStream) [2]int {
	return [2]int{len(ss.Recording(RoleAuth)), len(ss.Recording(RoleVouch))}
}

// TestStreamSessionReplayBitIdentical is the session-level oracle check:
// feeding each role its complete recording — whole, or interleaved in
// 1-sample, prime, and window-aligned chunks — must reproduce the batch
// RunACTIONWith result field for field.
func TestStreamSessionReplayBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		want := runSession(t, seed, SessionDeps{}, nil)
		for _, chunk := range []int{2048, 4096, 1 << 20} {
			ss := openStream(t, seed)
			feedInterleaved(t, ss, chunk, fullLimits(ss))
			got, need, err := ss.TryResult()
			if err != nil {
				t.Fatal(err)
			}
			if need != 0 {
				t.Fatalf("seed %d chunk %d: full feed still needs %d", seed, chunk, need)
			}
			if *got != *want {
				t.Fatalf("seed %d chunk %d: stream session diverged:\nstream %+v\nbatch  %+v", seed, chunk, got, want)
			}
			if math.Float64bits(got.DistanceM) != math.Float64bits(want.DistanceM) {
				t.Fatalf("seed %d chunk %d: distance bits differ", seed, chunk)
			}
		}
	}
}

// TestStreamSessionEarlyDecision: feeding each role only to its
// EarlyFeedLen horizon must yield the exact batch result — the decision
// lands while a large tail of both recordings has never been fed — and the
// session then refuses further audio with ErrStreamDecided.
func TestStreamSessionEarlyDecision(t *testing.T) {
	const seed = 42
	want := runSession(t, seed, SessionDeps{}, nil)
	ss := openStream(t, seed)
	limits := [2]int{ss.EarlyFeedLen(RoleAuth), ss.EarlyFeedLen(RoleVouch)}
	for _, role := range []Role{RoleAuth, RoleVouch} {
		if total := len(ss.Recording(role)); limits[role] >= total {
			t.Fatalf("%s horizon %d does not precede the recording end %d — early decision untested", role, limits[role], total)
		}
	}
	feedInterleaved(t, ss, 4096, limits)
	got, need, err := ss.TryResult()
	if err != nil {
		t.Fatal(err)
	}
	if need != 0 {
		t.Fatalf("horizon feed still needs %d samples", need)
	}
	if *got != *want {
		t.Fatalf("early decision diverged:\nearly %+v\nbatch %+v", got, want)
	}
	if err := ss.Feed(RoleAuth, ss.Recording(RoleAuth)[limits[RoleAuth]:]); !errors.Is(err, ErrStreamDecided) {
		t.Fatalf("post-decision feed returned %v, want ErrStreamDecided", err)
	}
	// The cached result is stable across repeated calls.
	again, need, err := ss.TryResult()
	if err != nil || need != 0 || again != got {
		t.Fatalf("repeated TryResult: %p need=%d err=%v, want cached %p", again, need, err, got)
	}
}

// TestStreamSessionNeedProgression: with no audio, TryResult must demand at
// least one window; the need must shrink as audio arrives and never demand
// more than the recording holds.
func TestStreamSessionNeedProgression(t *testing.T) {
	ss := openStream(t, 7)
	_, need, err := ss.TryResult()
	if err != nil {
		t.Fatal(err)
	}
	if need <= 0 {
		t.Fatalf("empty session reported need %d", need)
	}
	feedInterleaved(t, ss, 4096, [2]int{8192, 8192})
	_, need2, err := ss.TryResult()
	if err != nil {
		t.Fatal(err)
	}
	if need2 != need-8192 {
		t.Fatalf("need went %d → %d after feeding 8192 per role, want %d", need, need2, need-8192)
	}
	if max := len(ss.Recording(RoleAuth)); need2 > max {
		t.Fatalf("need %d exceeds recording %d", need2, max)
	}
}

// TestOpenStreamRejectsCCMode: the cross-correlation baseline has no
// incremental engine; opening a stream in that mode must fail loudly.
func TestOpenStreamRejectsCCMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = DetectCrossCorrelation
	auth, vouch := newPair(t, 0.8, true)
	la, lv, err := bluetooth.Pair(auth, vouch, cfg.BTLatency, cfg.BTRangeM)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenACTIONStream(SessionDeps{}, cfg, auth, vouch, la, lv, rand.New(rand.NewSource(1)), nil, false); err == nil {
		t.Fatal("CC-mode stream accepted")
	}
}

// TestAuthStreamMatchesAuthenticate: the public streaming decision must be
// byte-identical to Authenticate for the same seed, and account the same
// energy.
func TestAuthStreamMatchesAuthenticate(t *testing.T) {
	mk := func() *Authenticator {
		cfg := DefaultConfig()
		auth, vouch := newPair(t, 0.5, true)
		a, err := NewAuthenticator(cfg, auth, vouch, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	want, err := mk().Authenticate()
	if err != nil {
		t.Fatal(err)
	}

	as, err := mk().OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	for _, role := range []Role{RoleAuth, RoleVouch} {
		if err := as.Feed(role, as.Recording(role)); err != nil {
			t.Fatal(err)
		}
	}
	got, need, err := as.TryResult()
	if err != nil {
		t.Fatal(err)
	}
	if need != 0 {
		t.Fatalf("full feed still needs %d", need)
	}
	if got.Granted != want.Granted || got.Reason != want.Reason ||
		math.Float64bits(got.DistanceM) != math.Float64bits(want.DistanceM) {
		t.Fatalf("stream decision %+v != batch %+v", got, want)
	}
	if *got.Session != *want.Session {
		t.Fatalf("stream session %+v != batch %+v", got.Session, want.Session)
	}
}

// TestAuthStreamOutOfRangePreDecided: Bluetooth unreachability decides the
// stream at open time, without running ACTION or accepting audio.
func TestAuthStreamOutOfRangePreDecided(t *testing.T) {
	cfg := DefaultConfig()
	auth, vouch := newPair(t, 1.0, true)
	a, err := NewAuthenticator(cfg, auth, vouch, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	vouch.SetPosition([2]float64{12, 0}) // beyond the 10 m BT range
	as, err := a.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	res, need, err := as.TryResult()
	if err != nil || need != 0 {
		t.Fatalf("need=%d err=%v", need, err)
	}
	if res.Granted || res.Reason != ReasonBluetoothOutOfRange || res.Session != nil {
		t.Fatalf("got %+v", res)
	}
	if as.Recording(RoleAuth) != nil || as.EarlyFeedLen(RoleVouch) != 0 {
		t.Fatal("pre-decided stream exposed a recording")
	}
	if err := as.Feed(RoleAuth, make([]int16, 16)); !errors.Is(err, ErrStreamDecided) {
		t.Fatalf("feed returned %v, want ErrStreamDecided", err)
	}
}
