package piano

import (
	"errors"
	"math"
	"testing"
)

// TestAuthSessionMatchesAuthenticate: the public streaming session must
// decide bit-identically to the batch Authenticate call for the same
// request, both when fed to the early horizon and when fed everything. Both
// run the service's one Session lifecycle, so the serial Deployment path
// is checked too, as the independent oracle.
func TestAuthSessionMatchesAuthenticate(t *testing.T) {
	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	req := AuthRequest{
		Auth:  DeviceSpec{Name: "hub"},
		Vouch: DeviceSpec{Name: "watch", X: 0.7},
		Seed:  11,
	}
	want, err := svc.Authenticate(req)
	if err != nil {
		t.Fatal(err)
	}
	if serial := deploymentRun(t, req); serial.Granted != want.Granted || serial.Reason != want.Reason ||
		math.Float64bits(serial.DistanceM) != math.Float64bits(want.DistanceM) ||
		math.Float64bits(serial.AuthTimeSec) != math.Float64bits(want.AuthTimeSec) {
		t.Fatalf("batch decision %+v != serial deployment %+v", want, serial)
	}

	for _, early := range []bool{false, true} {
		sess, err := svc.OpenSession(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, role := range []Role{RoleAuth, RoleVouch} {
			rec := sess.Recording(role)
			limit := len(rec)
			if early {
				limit = sess.EarlyFeedLen(role)
				if limit >= len(rec) {
					t.Fatalf("horizon %d does not precede recording end %d", limit, len(rec))
				}
			}
			for at := 0; at < limit; at += 4096 {
				end := at + 4096
				if end > limit {
					end = limit
				}
				if err := sess.Feed(role, rec[at:end]); err != nil {
					t.Fatalf("early=%v feed %v: %v", early, role, err)
				}
			}
		}
		got, err := sess.Result()
		if err != nil {
			t.Fatalf("early=%v: %v", early, err)
		}
		if got.Granted != want.Granted || got.Reason != want.Reason ||
			math.Float64bits(got.DistanceM) != math.Float64bits(want.DistanceM) ||
			math.Float64bits(got.AuthTimeSec) != math.Float64bits(want.AuthTimeSec) {
			t.Fatalf("early=%v: streamed decision %+v != batch %+v", early, got, want)
		}
	}
}

// TestAuthSessionTypedErrors pins the public sentinels: premature Result,
// over-length feed, post-decision feed, and post-Close admission.
func TestAuthSessionTypedErrors(t *testing.T) {
	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	req := AuthRequest{
		Auth:  DeviceSpec{Name: "hub"},
		Vouch: DeviceSpec{Name: "watch", X: 0.7},
		Seed:  12,
	}
	sess, err := svc.OpenSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Result(); !errors.Is(err, ErrNeedMoreAudio) {
		t.Fatalf("empty Result: %v, want ErrNeedMoreAudio", err)
	}
	rec := sess.Recording(RoleAuth)
	if err := sess.Feed(RoleAuth, make([]int16, len(rec)+1)); !errors.Is(err, ErrFeedOverflow) {
		t.Fatalf("over-length feed: %v, want ErrFeedOverflow", err)
	}

	// Hostile frames: empty payloads are harmless duplicates, frames outside
	// the declared recording or failing their CRC are refused typed, and
	// none of it costs allocations that grow with the recording length.
	const maxRejectAllocs = 16
	allocs := func(name string, fn func()) {
		t.Helper()
		if n := testing.AllocsPerRun(20, fn); n > maxRejectAllocs {
			t.Errorf("%s: %.0f allocs per call, want at most %d", name, n, maxRejectAllocs)
		}
	}
	empty := NewFrame(1, 0, nil)
	if err := sess.FeedFrame(RoleAuth, empty); err != nil {
		t.Fatalf("zero-length frame: %v, want nil", err)
	}
	if fed, dups := sess.Fed(RoleAuth), sess.FrameStats(RoleAuth).Dups; fed != 0 || dups != 1 {
		t.Fatalf("zero-length frame: Fed %d, Dups %d; want 0, 1", fed, dups)
	}
	allocs("zero-length frame", func() { _ = sess.FeedFrame(RoleAuth, empty) })
	if err := sess.FeedFrame(RoleAuth, NewFrame(2, len(rec), nil)); err != nil {
		t.Fatalf("zero-length frame at the declared end: %v, want nil", err)
	}
	straddle := NewFrame(3, len(rec)-10, make([]int16, 20))
	for _, f := range []Frame{straddle, NewFrame(4, -1, rec[:10]), NewFrame(5, math.MaxInt, rec[:10])} {
		if err := sess.FeedFrame(RoleAuth, f); !errors.Is(err, ErrFrameRange) {
			t.Fatalf("frame at offset %d with %d samples: %v, want ErrFrameRange", f.Offset, len(f.PCM), err)
		}
	}
	allocs("straddling frame", func() { _ = sess.FeedFrame(RoleAuth, straddle) })
	corrupt := NewFrame(6, 0, rec[:100])
	corrupt.CRC ^= 1
	if err := sess.FeedFrame(RoleAuth, corrupt); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("flipped-CRC frame: %v, want ErrFrameCorrupt", err)
	}
	allocs("corrupt frame", func() { _ = sess.FeedFrame(RoleAuth, corrupt) })
	if fed := sess.Fed(RoleAuth); fed != 0 {
		t.Fatalf("hostile frames fed %d samples, want 0", fed)
	}
	if n := testing.AllocsPerRun(20, func() { _, _, _ = sess.TryResult() }); n != 0 {
		t.Errorf("pending TryResult: %.0f allocs per call, want 0", n)
	}
	for _, role := range []Role{RoleAuth, RoleVouch} {
		if err := sess.Feed(role, sess.Recording(role)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Result(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Feed(RoleVouch, make([]int16, 1)); !errors.Is(err, ErrStreamDecided) {
		t.Fatalf("post-decision feed: %v, want ErrStreamDecided", err)
	}
	svc.Close()
	if _, err := svc.OpenSession(req); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close open: %v, want ErrClosed", err)
	}
}
