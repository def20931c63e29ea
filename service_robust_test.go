package piano

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/acoustic-auth/piano/internal/faultinject"
)

// TestServicePublicValidation: the public surface rejects the parameters
// the hardening pass closed off — non-finite thresholds and unknown
// environment values.
func TestServicePublicValidation(t *testing.T) {
	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	base := serviceRequests()[0]

	for _, tau := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		req := base
		req.ThresholdM = tau
		if _, err := svc.Authenticate(req); err == nil {
			t.Errorf("threshold %g accepted", tau)
		}
	}
	for _, env := range []Environment{-1, Street + 1, 99} {
		req := base
		req.Environment = env
		if _, err := svc.Authenticate(req); err == nil {
			t.Errorf("environment %d accepted", int(env))
		}
	}
}

// TestServicePublicCancelReturnsCtxErr: AuthenticateContext surfaces the
// caller's ctx.Err() unwrapped, so errors.Is and direct comparison both
// work, and the service keeps serving afterwards.
func TestServicePublicCancelReturnsCtxErr(t *testing.T) {
	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	req := serviceRequests()[0]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Enable(1)
	faultinject.Arm(faultinject.SiteDetectBlock, faultinject.Fault{
		Action: faultinject.ActHook, Skip: 4, Times: 1, Hook: cancel,
	})
	_, err = svc.AuthenticateContext(ctx, req)
	faultinject.Disable()
	if err != context.Canceled {
		t.Fatalf("mid-scan cancel returned %v, want context.Canceled unwrapped", err)
	}

	if _, err := svc.Authenticate(req); err != nil {
		t.Fatalf("service unusable after a canceled session: %v", err)
	}
}

// TestServicePublicNilContext: AuthenticateContext accepts a nil ctx
// (uncancellable, as the internal service and AuthenticateWithRetry treat
// one), so its error paths must not dereference it: after Close the call
// returns ErrClosed instead of panicking.
func TestServicePublicNilContext(t *testing.T) {
	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	req := serviceRequests()[0]
	var ctx context.Context // nil
	if _, err := svc.AuthenticateContext(ctx, req); err != nil {
		t.Fatalf("nil-ctx session failed: %v", err)
	}
	svc.Close()
	if _, err := svc.AuthenticateContext(ctx, req); !errors.Is(err, ErrClosed) {
		t.Fatalf("nil-ctx call after Close returned %v, want ErrClosed", err)
	}
}

// TestServicePublicOverloadAndClosed: the re-exported typed errors surface
// through the public layer — ErrOverloaded from a saturated service with a
// bounded queue wait, ErrClosed after Close.
func TestServicePublicOverloadAndClosed(t *testing.T) {
	cfg := DefaultServiceConfig()
	cfg.Workers = 1
	cfg.MaxSessions = 1
	cfg.MaxQueueWait = 20 * time.Millisecond
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := serviceRequests()[0]

	faultinject.Enable(1)
	release := make(chan struct{})
	entered := make(chan struct{})
	faultinject.Arm(faultinject.SiteServiceSession, faultinject.Fault{
		Action: faultinject.ActHook,
		Times:  1,
		Hook: func() {
			close(entered)
			<-release
		},
	})
	hold := make(chan error, 1)
	go func() {
		_, err := svc.Authenticate(req)
		hold <- err
	}()
	<-entered
	if _, err := svc.Authenticate(req); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated service returned %v, want ErrOverloaded", err)
	}
	close(release)
	faultinject.Disable()
	if err := <-hold; err != nil {
		t.Fatalf("slot-holding session failed: %v", err)
	}

	svc.Close()
	if _, err := svc.Authenticate(req); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed service returned %v, want ErrClosed", err)
	}
}
