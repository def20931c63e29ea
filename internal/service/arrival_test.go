package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/acoustic-auth/piano/internal/arrival"
	"github.com/acoustic-auth/piano/internal/core"
)

// TestSessionArrivalAbandonReaped closes the loop between the traffic
// model and the lifecycle watchdog: a client whose arrival schedule draws
// the Abandon fate feeds its prefix, vanishes, and the watchdog resolves
// the session ErrSessionReaped — the slot comes back without any client
// cooperation.
func TestSessionArrivalAbandonReaped(t *testing.T) {
	svc := newLifecycleService(t, 2, 30*time.Millisecond, 0)
	defer svc.Close()

	sn, err := svc.OpenSession(context.Background(), pairRequest(0.8, 60))
	if err != nil {
		t.Fatal(err)
	}
	cfg := arrival.Config{Jitter: 0.3, AbandonProb: 1}
	src, err := arrival.New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec := sn.Recording(core.RoleAuth)
	fed := 0
	for {
		ev := src.Next(fed, len(rec))
		if ev.Kind != arrival.Chunk && ev.Kind != arrival.Underrun {
			if ev.Kind != arrival.Abandon {
				t.Fatalf("terminal event = %v, want abandon", ev.Kind)
			}
			break
		}
		if err := sn.Feed(core.RoleAuth, rec[fed:fed+ev.N]); err != nil {
			t.Fatalf("feed [%d, %d): %v", fed, fed+ev.N, err)
		}
		fed += ev.N
	}
	if fed <= 0 || fed >= len(rec) {
		t.Fatalf("abandon fired after %d of %d samples, want strictly mid-feed", fed, len(rec))
	}

	// The client is gone; only the watchdog can resolve the session now.
	_, rerr := waitResolved(t, sn, time.Second)
	if !errors.Is(rerr, ErrSessionStalled) || !errors.Is(rerr, ErrSessionReaped) {
		t.Fatalf("abandoned session resolved %v, want ErrSessionStalled", rerr)
	}
	assertNoLeak(t, svc)
}
