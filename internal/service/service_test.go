package service

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/core"
)

func newService(t testing.TB, workers int) *AuthService {
	t.Helper()
	svc, err := New(Config{Core: core.DefaultConfig(), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func pairRequest(dist float64, seed int64) Request {
	return Request{
		Auth:  DeviceSpec{Name: "hub", X: 0, Y: 0, ClockSkewPPM: 12},
		Vouch: DeviceSpec{Name: "watch", X: dist, Y: 0, ClockSkewPPM: -17},
		Seed:  seed,
	}
}

func TestServiceGrantsAndDenies(t *testing.T) {
	svc := newService(t, 0)
	defer svc.Close()

	near, err := svc.Authenticate(pairRequest(0.8, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !near.Granted || near.Reason != core.ReasonGranted {
		t.Fatalf("0.8 m under τ=1 m should grant; got %+v", near)
	}
	far, err := svc.Authenticate(pairRequest(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	if far.Granted || far.Reason != core.ReasonSignalAbsent {
		t.Fatalf("6 m should be absent; got %+v", far)
	}
	if got := svc.Sessions(); got != 2 {
		t.Fatalf("sessions = %d", got)
	}
}

func TestServiceOverrides(t *testing.T) {
	svc := newService(t, 0)
	defer svc.Close()

	req := pairRequest(0.8, 5)
	req.ThresholdM = 0.5
	dec, err := svc.Authenticate(req)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Granted || dec.Reason != core.ReasonDistanceExceedsThreshold {
		t.Fatalf("0.8 m with τ=0.5 m should deny on threshold; got %+v", dec)
	}

	// The environment override must change the scene (and hence the
	// measured value) relative to the default-office run of the same seed.
	req = pairRequest(0.8, 5)
	office, err := svc.Authenticate(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Environment = acoustic.EnvStreet
	street, err := svc.Authenticate(req)
	if err != nil {
		t.Fatal(err)
	}
	if office.DistanceM == street.DistanceM {
		t.Fatal("street override produced the office measurement; override ignored?")
	}
}

// TestServiceWorkerCountInvariant: the same request must decide
// bit-identically no matter how the pool is sized — the scan reduction is
// in window order, so worker scheduling can never leak into results.
func TestServiceWorkerCountInvariant(t *testing.T) {
	reqs := []Request{
		pairRequest(0.4, 11),
		pairRequest(0.9, 12),
		pairRequest(1.6, 13),
	}
	reqs[2].Interferers = []DeviceSpec{{Name: "other-user", X: 2.2, Y: 1.4}}

	one := newService(t, 1)
	defer one.Close()
	four := newService(t, 4)
	defer four.Close()
	for i, req := range reqs {
		a, err := one.Authenticate(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := four.Authenticate(req)
		if err != nil {
			t.Fatal(err)
		}
		if a.Granted != b.Granted || a.Reason != b.Reason ||
			math.Float64bits(a.DistanceM) != math.Float64bits(b.DistanceM) {
			t.Fatalf("request %d: 1-worker %+v != 4-worker %+v", i, a, b)
		}
	}
}

// TestShardWorkerDistribution keeps the name it had when Workers was split
// across shards: the service's one pool gets the whole Workers budget, and
// Workers 0 means GOMAXPROCS.
func TestShardWorkerDistribution(t *testing.T) {
	for _, tc := range []struct{ workers, want int }{
		{workers: 0, want: runtime.GOMAXPROCS(0)},
		{workers: 1, want: 1},
		{workers: 2, want: 2},
		{workers: 5, want: 5},
	} {
		svc := newService(t, tc.workers)
		if got := svc.pool.Workers(); got != tc.want {
			t.Errorf("Workers %d built a pool of %d workers, want %d", tc.workers, got, tc.want)
		}
		svc.Close()
	}
}

// TestServiceConcurrentBitIdentical: ≥4 concurrent sessions, each
// bit-identical to its own serial run (exercised under -race in CI).
func TestServiceConcurrentBitIdentical(t *testing.T) {
	svc := newService(t, 2)
	defer svc.Close()

	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = pairRequest(0.3+0.35*float64(i), int64(40+i))
	}
	reqs[1].Interferers = []DeviceSpec{{Name: "neighbor", X: 1.9, Y: 1.1}}

	serial := make([]*core.Result, len(reqs))
	for i, req := range reqs {
		res, err := svc.Authenticate(req)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}

	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		results := make([]*core.Result, len(reqs))
		errs := make([]error, len(reqs))
		for i := range reqs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = svc.Authenticate(reqs[i])
			}(i)
		}
		wg.Wait()
		for i := range reqs {
			if errs[i] != nil {
				t.Fatalf("round %d request %d: %v", round, i, errs[i])
			}
			got, want := results[i], serial[i]
			if got.Granted != want.Granted || got.Reason != want.Reason ||
				math.Float64bits(got.DistanceM) != math.Float64bits(want.DistanceM) {
				t.Fatalf("round %d request %d: concurrent %+v != serial %+v", round, i, got, want)
			}
			if want.Session != nil && *got.Session != *want.Session {
				t.Fatalf("round %d request %d: session diverged:\n%+v\n%+v", round, i, got.Session, want.Session)
			}
		}
	}
}

func TestServiceClose(t *testing.T) {
	svc := newService(t, 1)
	if _, err := svc.Authenticate(pairRequest(0.8, 2)); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	svc.Close() // idempotent
	if _, err := svc.Authenticate(pairRequest(0.8, 2)); err != ErrClosed {
		t.Fatalf("authenticate after close: %v", err)
	}
}

func TestServiceRejectsNegativeThreshold(t *testing.T) {
	svc := newService(t, 1)
	defer svc.Close()
	req := pairRequest(0.8, 2)
	req.ThresholdM = -0.5
	if _, err := svc.Authenticate(req); err == nil {
		t.Fatal("negative threshold accepted")
	}
}

func TestServiceRejectsBadConfig(t *testing.T) {
	bad := core.DefaultConfig()
	bad.ThresholdM = -1
	if _, err := New(Config{Core: bad}); err == nil {
		t.Fatal("invalid core config accepted")
	}
}
