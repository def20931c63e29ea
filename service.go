package piano

import (
	"context"
	"fmt"
	"time"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/service"
)

// Typed service failure modes, re-exported from the service
// implementation; match with errors.Is. See ARCHITECTURE.md "Failure
// semantics" for the full taxonomy (these plus ctx.Err() passthrough).
var (
	// ErrClosed: the request arrived (or was still queued) after Close
	// began draining.
	ErrClosed = service.ErrClosed
	// ErrOverloaded: admission control shed the request — the service was
	// saturated past MaxQueueWait/MaxQueueDepth. Back off and retry.
	ErrOverloaded = service.ErrOverloaded
	// ErrInternal: the session died to a recovered panic; the service
	// itself keeps serving. The *service.InternalError in the chain
	// carries the panic value and stack.
	ErrInternal = service.ErrInternal
	// ErrConfig: NewService (or a RetryPolicy) rejected its configuration;
	// the message names the offending field.
	ErrConfig = service.ErrConfig
	// ErrSessionReaped is the category sentinel for lifecycle-watchdog
	// resolutions: errors.Is matches it for both ErrSessionStalled and
	// ErrSessionExpired.
	ErrSessionReaped = service.ErrSessionReaped
	// ErrSessionStalled: the gap between successful Feed calls (or between
	// open and the first Feed) exceeded SessionIdleTimeout, and the
	// watchdog resolved the session, releasing its slot.
	ErrSessionStalled = service.ErrSessionStalled
	// ErrSessionExpired: the session stayed unresolved past
	// SessionMaxLifetime — however actively it was fed — and the watchdog
	// resolved it.
	ErrSessionExpired = service.ErrSessionExpired
)

// ServiceConfig configures a long-lived authentication Service.
type ServiceConfig struct {
	// Environment is the default ambient scenario (requests may override).
	// Default: Office.
	Environment Environment
	// ThresholdM is the default authentication threshold τ in meters
	// (requests may override). Default: 1.0.
	ThresholdM float64
	// Workers sizes the shared detection worker pool. Default (0):
	// GOMAXPROCS; negative values are rejected with ErrConfig.
	Workers int
	// MaxSessions bounds how many sessions run concurrently; further
	// Authenticate calls wait for a slot. Default (0): 4 × Workers;
	// negative values are rejected with ErrConfig.
	MaxSessions int
	// MaxQueueWait bounds how long a request may wait for a session slot
	// before being shed with ErrOverloaded. Default (0): wait
	// indefinitely (a request context can still cancel the wait).
	MaxQueueWait time.Duration
	// MaxQueueDepth bounds how many requests may queue for a slot at
	// once; requests beyond it shed immediately with ErrOverloaded.
	// Default (0): unbounded; negative values are rejected with ErrConfig.
	MaxQueueDepth int
	// SessionIdleTimeout bounds the gap between successful Feed calls on a
	// streaming session (and between open and the first Feed). A session
	// idle past it is resolved ErrSessionStalled by the lifecycle watchdog
	// and its slot released — the defense against clients that vanish
	// mid-feed without closing. Time inside an in-flight Feed or
	// Result/TryResult call does not count as idle. Default (0): no idle
	// bound; negative values are rejected with ErrConfig.
	SessionIdleTimeout time.Duration
	// SessionMaxLifetime bounds a streaming session's total open-to-
	// resolution time, however actively it is fed; past it the watchdog
	// resolves the session ErrSessionExpired. Default (0): no lifetime
	// bound; negative values are rejected with ErrConfig.
	SessionMaxLifetime time.Duration
	// ReorderWindow bounds, in samples, how far ahead of the in-order
	// frontier a framed session (FeedFrame) buffers out-of-order audio
	// per role; past it the oldest gap is declared lost instead of
	// waiting for a retransmission. A pure function of the frame
	// sequence, so framed decisions stay deterministic. Default (0): the
	// frame package's default window; negative values are rejected with
	// ErrConfig.
	ReorderWindow int
	// GapRepairTimeout bounds how long a framed session waits in wall-
	// clock time for a retransmission to repair a reassembly gap before
	// the lifecycle watchdog declares it lost. Default (0): no wall-clock
	// deadline (gaps expire only structurally or at FinishFeed); negative
	// values are rejected with ErrConfig.
	GapRepairTimeout time.Duration
}

// DefaultServiceConfig mirrors DefaultConfig for the service surface:
// office scenario, τ = 1 m, pool sized to the machine.
func DefaultServiceConfig() ServiceConfig {
	return ServiceConfig{Environment: Office, ThresholdM: 1.0}
}

// AuthRequest is one authentication session submitted to a Service.
type AuthRequest struct {
	// Auth and Vouch place the authenticating and vouching devices.
	Auth, Vouch DeviceSpec
	// Interferers are other PIANO users' devices sharing the space; each
	// plays two randomized reference signals at random times during the
	// session (the multi-user scenario of Fig. 2a).
	Interferers []DeviceSpec
	// Seed drives all of this session's randomness (0 → 1). Equal
	// requests with equal seeds decide identically, no matter how many
	// other sessions run at the same time.
	Seed int64
	// ThresholdM overrides the service's τ for this session (0 → service
	// default).
	ThresholdM float64
	// Environment overrides the ambient scenario (0 → service default).
	Environment Environment
}

// Service is a long-lived, concurrency-safe PIANO authentication server —
// the deployment shape of an always-on voice-powered hub serving many
// users. Unlike a Deployment (one pairing, one session at a time), a
// Service accepts concurrent Authenticate calls and batches all of their
// signal-detection work through one bounded worker pool with FFT plans
// pinned per window length, so scratch buffers stay pooled and caches stay
// hot under load. Every session still gets its own seeded RNG stream:
// results are bit-identical to running the same request serially.
type Service struct {
	svc *service.AuthService
}

// NewService builds and starts a Service.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Environment == 0 {
		cfg.Environment = Office
	}
	if cfg.ThresholdM == 0 {
		cfg.ThresholdM = 1.0
	}
	coreCfg := core.DefaultConfig()
	coreCfg.World.Environment = cfg.Environment.internal()
	coreCfg.ThresholdM = cfg.ThresholdM
	svc, err := service.New(service.Config{
		Core:               coreCfg,
		Workers:            cfg.Workers,
		MaxSessions:        cfg.MaxSessions,
		MaxQueueWait:       cfg.MaxQueueWait,
		MaxQueueDepth:      cfg.MaxQueueDepth,
		SessionIdleTimeout: cfg.SessionIdleTimeout,
		SessionMaxLifetime: cfg.SessionMaxLifetime,
		ReorderWindow:      cfg.ReorderWindow,
		GapRepairTimeout:   cfg.GapRepairTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("piano: %w", err)
	}
	return &Service{svc: svc}, nil
}

// Authenticate runs one complete PIANO session for the requested device
// pair and returns the access decision. Safe to call from any number of
// goroutines; calls beyond the configured concurrency bound wait for a
// session slot (subject to MaxQueueWait/MaxQueueDepth). It is
// AuthenticateContext with an uncancellable context.
func (s *Service) Authenticate(req AuthRequest) (*Decision, error) {
	return s.AuthenticateContext(context.Background(), req)
}

// AuthenticateContext is Authenticate under a context: cancellation is
// cooperative (observed between protocol steps and between scan hop
// blocks), so an abandoned call frees its session slot and pool workers
// mid-scan and returns ctx.Err(). Sessions that complete are bit-identical
// to uncancelled runs. Typed failures: ErrOverloaded (admission shed),
// ErrClosed (service draining/closed), ErrInternal (recovered panic; the
// service keeps serving).
func (s *Service) AuthenticateContext(ctx context.Context, req AuthRequest) (*Decision, error) {
	sreq, err := convertRequest(req)
	if err != nil {
		return nil, err
	}
	res, err := s.svc.AuthenticateContext(ctx, sreq)
	if err != nil {
		// The typed sentinels and ctx.Err() pass through unwrapped so
		// callers can match them directly; anything else gets the usual
		// package prefix.
		if ctxe := ctx.Err(); ctxe != nil && err == ctxe {
			return nil, err
		}
		return nil, fmt.Errorf("piano: %w", err)
	}
	return toDecision(res), nil
}

// toDecision converts an internal session result to the public decision
// shape (shared by the batch and streaming paths).
func toDecision(res *core.Result) *Decision {
	dec := &Decision{Granted: res.Granted, Reason: res.Reason, DistanceM: res.DistanceM}
	if res.Session != nil {
		dec.AuthTimeSec = res.Session.AuthTimeSec
		dec.Degraded = res.Session.Degraded
	}
	return dec
}

// convertRequest validates a public AuthRequest at the public enum (the
// internal conversion would otherwise silently map unknown environments to
// Quiet) and translates it to the internal service request — shared by the
// batch (AuthenticateContext) and streaming (OpenSessionContext) paths so
// the two interpret requests identically.
func convertRequest(req AuthRequest) (service.Request, error) {
	var env acoustic.Environment
	if req.Environment != 0 {
		if req.Environment < Quiet || req.Environment > Street {
			return service.Request{}, fmt.Errorf("piano: unknown environment %d (known: Quiet through Street, or 0 for the service default)", int(req.Environment))
		}
		env = req.Environment.internal()
	}
	conv := func(d DeviceSpec) service.DeviceSpec {
		return service.DeviceSpec{Name: d.Name, X: d.X, Y: d.Y, Room: d.Room, ClockSkewPPM: d.ClockSkewPPM}
	}
	sreq := service.Request{
		Auth:        conv(req.Auth),
		Vouch:       conv(req.Vouch),
		Seed:        req.Seed,
		ThresholdM:  req.ThresholdM,
		Environment: env,
	}
	for _, in := range req.Interferers {
		sreq.Interferers = append(sreq.Interferers, conv(in))
	}
	return sreq, nil
}

// Sessions returns the number of sessions the service has completed.
func (s *Service) Sessions() uint64 { return s.svc.Sessions() }

// Close drains in-flight sessions and releases the service's workers.
// Subsequent Authenticate calls fail.
func (s *Service) Close() { s.svc.Close() }
