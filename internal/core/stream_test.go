package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/acoustic-auth/piano/internal/bluetooth"
	"github.com/acoustic-auth/piano/internal/energy"
)

// openStream opens a seeded streaming session between a 0.8 m pair — the
// streaming twin of runSession's setup, so the two are oracle-comparable
// per seed.
func openStream(t *testing.T, seed int64) *AuthStream {
	t.Helper()
	auth, vouch := newPair(t, 0.8, true)
	a, err := NewAuthenticator(DefaultConfig(), auth, vouch, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	as, err := a.OpenStreamContext(nil)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

// feedInterleaved feeds both roles' recordings in alternating chunks (the
// shape of two live microphones draining concurrently), up to each role's
// given limit.
func feedInterleaved(t *testing.T, as *AuthStream, chunk int, limit [2]int) {
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
			if err := as.Feed(role, as.Recording(role)[at[role]:end]); err != nil {
				t.Fatalf("feed %s [%d, %d): %v", role, at[role], end, err)
			}
			at[role] = end
		}
	}
}

func fullLimits(as *AuthStream) [2]int {
	return [2]int{len(as.Recording(RoleAuth)), len(as.Recording(RoleVouch))}
}

// TestStreamSessionReplayBitIdentical is the session-level oracle check:
// feeding each role its complete recording — whole, or interleaved in
// 1-sample, prime, and window-aligned chunks — must reproduce the batch
// Measure result field for field.
func TestStreamSessionReplayBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		want := runSession(t, seed, nil, nil)
		for _, chunk := range []int{2048, 4096, 1 << 20} {
			as := openStream(t, seed)
			feedInterleaved(t, as, chunk, fullLimits(as))
			got, need, err := as.TryResult()
			if err != nil {
				t.Fatal(err)
			}
			if need != 0 {
				t.Fatalf("seed %d chunk %d: full feed still needs %d", seed, chunk, need)
			}
			if *got.Session != *want {
				t.Fatalf("seed %d chunk %d: stream session diverged:\nstream %+v\nbatch  %+v", seed, chunk, got.Session, want)
			}
			if math.Float64bits(got.Session.DistanceM) != math.Float64bits(want.DistanceM) {
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
	want := runSession(t, seed, nil, nil)
	as := openStream(t, seed)
	limits := [2]int{as.EarlyFeedLen(RoleAuth), as.EarlyFeedLen(RoleVouch)}
	for _, role := range []Role{RoleAuth, RoleVouch} {
		if total := len(as.Recording(role)); limits[role] >= total {
			t.Fatalf("%s horizon %d does not precede the recording end %d — early decision untested", role, limits[role], total)
		}
	}
	feedInterleaved(t, as, 4096, limits)
	got, need, err := as.TryResult()
	if err != nil {
		t.Fatal(err)
	}
	if need != 0 {
		t.Fatalf("horizon feed still needs %d samples", need)
	}
	if *got.Session != *want {
		t.Fatalf("early decision diverged:\nearly %+v\nbatch %+v", got.Session, want)
	}
	if err := as.Feed(RoleAuth, as.Recording(RoleAuth)[limits[RoleAuth]:]); !errors.Is(err, ErrStreamDecided) {
		t.Fatalf("post-decision feed returned %v, want ErrStreamDecided", err)
	}
	// The cached result is stable across repeated calls.
	again, need, err := as.TryResult()
	if err != nil || need != 0 || again != got {
		t.Fatalf("repeated TryResult: %p need=%d err=%v, want cached %p", again, need, err, got)
	}
}

// TestStreamSessionNeedProgression: with no audio, TryResult must demand at
// least one window; the need must shrink as audio arrives and never demand
// more than the recording holds.
func TestStreamSessionNeedProgression(t *testing.T) {
	as := openStream(t, 7)
	_, need, err := as.TryResult()
	if err != nil {
		t.Fatal(err)
	}
	if need <= 0 {
		t.Fatalf("empty session reported need %d", need)
	}
	feedInterleaved(t, as, 4096, [2]int{8192, 8192})
	_, need2, err := as.TryResult()
	if err != nil {
		t.Fatal(err)
	}
	if need2 != need-8192 {
		t.Fatalf("need went %d → %d after feeding 8192 per role, want %d", need, need2, need-8192)
	}
	if max := len(as.Recording(RoleAuth)); need2 > max {
		t.Fatalf("need %d exceeds recording %d", need2, max)
	}
}

// TestOpenStreamRejectsCCMode: the cross-correlation baseline has no
// incremental engine; opening a stream in that mode must fail loudly.
func TestOpenStreamRejectsCCMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = DetectCrossCorrelation
	auth, vouch := newPair(t, 0.8, true)
	a, err := NewAuthenticator(cfg, auth, vouch, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.OpenStreamContext(nil); err == nil {
		t.Fatal("CC-mode stream accepted")
	}
}

// TestAuthStreamMatchesAuthenticate: the public streaming decision — fed
// chunk by chunk or born fed — must be byte-identical to Authenticate for
// the same seed, and every path must account the same energy exactly once
// (Measure included).
func TestAuthStreamMatchesAuthenticate(t *testing.T) {
	newLedger := func() *energy.Ledger {
		l, err := energy.NewLedger(energy.DefaultPowerModel())
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	mk := func() (*Authenticator, *energy.Ledger) {
		cfg := DefaultConfig()
		auth, vouch := newPair(t, 0.5, true)
		a, err := NewAuthenticator(cfg, auth, vouch, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		l := newLedger()
		a.TrackEnergy(l, nil)
		return a, l
	}
	a, wantLedger := mk()
	want, err := a.Authenticate()
	if err != nil {
		t.Fatal(err)
	}
	// Equal totals across paths would miss a double booking they all
	// share, so Authenticate must also match one session booked by hand.
	once := newLedger()
	a.TrackEnergy(once, nil)
	a.account(want.Session)
	if g, w := wantLedger.TotalJoules(), once.TotalJoules(); w <= 0 || g != w {
		t.Fatalf("Authenticate booked %.6f J, one session is %.6f J", g, w)
	}

	for _, fed := range []bool{false, true} {
		a, ledger := mk()
		open := a.OpenStreamContext
		if fed {
			open = a.OpenFedStreamContext
		}
		as, err := open(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !fed {
			for _, role := range []Role{RoleAuth, RoleVouch} {
				if err := as.Feed(role, as.Recording(role)); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, need, err := as.TryResult()
		if err != nil {
			t.Fatal(err)
		}
		if need != 0 {
			t.Fatalf("fed=%v: full feed still needs %d", fed, need)
		}
		if got.Granted != want.Granted || got.Reason != want.Reason ||
			math.Float64bits(got.DistanceM) != math.Float64bits(want.DistanceM) {
			t.Fatalf("fed=%v: stream decision %+v != batch %+v", fed, got, want)
		}
		if *got.Session != *want.Session {
			t.Fatalf("fed=%v: stream session %+v != batch %+v", fed, got.Session, want.Session)
		}
		if _, _, err := as.TryResult(); err != nil {
			t.Fatal(err)
		}
		if g, w := ledger.TotalJoules(), wantLedger.TotalJoules(); g != w {
			t.Fatalf("fed=%v: stream booked %.6f J, Authenticate %.6f J", fed, g, w)
		}
	}

	a, ledger := mk()
	sr, err := a.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if *sr != *want.Session {
		t.Fatalf("measured session %+v != authenticated %+v", sr, want.Session)
	}
	if g, w := ledger.TotalJoules(), wantLedger.TotalJoules(); g != w {
		t.Fatalf("Measure booked %.6f J, Authenticate %.6f J", g, w)
	}
}

// TestAuthStreamOutOfRangePreDecided: Bluetooth unreachability decides the
// stream at open time, without running ACTION or accepting audio. The
// batch entry points keep their own semantics: Authenticate denies the
// same way, and Measure — which makes no access decision — fails with
// bluetooth.ErrOutOfRange.
func TestAuthStreamOutOfRangePreDecided(t *testing.T) {
	cfg := DefaultConfig()
	auth, vouch := newPair(t, 1.0, true)
	a, err := NewAuthenticator(cfg, auth, vouch, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	vouch.SetPosition([2]float64{12, 0}) // beyond the 10 m BT range
	as, err := a.OpenStreamContext(nil)
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

	res, err = a.Authenticate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted || res.Reason != ReasonBluetoothOutOfRange || res.Session != nil {
		t.Fatalf("Authenticate out of range: got %+v", res)
	}
	if sr, err := a.Measure(); !errors.Is(err, bluetooth.ErrOutOfRange) {
		t.Fatalf("Measure out of range: got (%+v, %v), want bluetooth.ErrOutOfRange", sr, err)
	}
}
