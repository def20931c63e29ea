package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/attack"
	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/detect"
	"github.com/acoustic-auth/piano/internal/device"
)

// ErrClosed is returned by AuthenticateContext after Close has begun: both for
// calls arriving after Close and for callers that were still waiting for a
// session slot when draining started (they are shed, not admitted).
var ErrClosed = errors.New("service: closed")

// ErrOverloaded is the admission-control shed signal: the service is at
// its concurrent-session bound and the request either exceeded
// Config.MaxQueueWait waiting for a slot or found the wait queue already
// MaxQueueDepth deep. Callers should back off and retry; the service
// itself remains healthy.
var ErrOverloaded = errors.New("service: overloaded")

// ErrInternal marks a session that died to a recovered panic (a bug or an
// injected fault) anywhere in its pipeline — scan workers, per-device
// detection goroutines, or the session goroutine itself. Match with
// errors.Is; the concrete *InternalError in the chain carries the panic
// value and stack. The service stays serviceable: the poisoned scan
// workspace is discarded and a replacement is re-prewarmed.
var ErrInternal = errors.New("service: internal error")

// InternalError is the concrete error behind ErrInternal: one recovered
// panic with the stack of the goroutine that panicked.
type InternalError struct {
	// Panic is the recovered panic value.
	Panic any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error (the stack is carried, not printed — log it from
// the field).
func (e *InternalError) Error() string {
	return fmt.Sprintf("service: internal error: panic: %v", e.Panic)
}

// Is reports errors.Is(e, ErrInternal).
func (e *InternalError) Is(target error) bool { return target == ErrInternal }

// Config configures a long-lived AuthService.
type Config struct {
	// Core is the base session configuration (signal design, detection
	// parameters, scene, timing). Per-request threshold and environment
	// overrides apply on top; everything that shapes detection is fixed
	// for the service lifetime so the shared detector matches every
	// session.
	Core core.Config
	// Workers sets how many scan workspaces are prewarmed (Workers+1) and
	// the default MaxSessions (0 → GOMAXPROCS; negative values are
	// rejected with ErrConfig). It does not bound a scan's fan-out: every
	// scan recruits up to GOMAXPROCS−1 transient helper goroutines.
	Workers int
	// MaxSessions bounds the number of concurrently running sessions
	// (0 → 4 × Workers; negative values are rejected with ErrConfig).
	// Excess AuthenticateContext calls wait for a slot, which keeps memory and
	// goroutine counts flat under burst load; how long they may wait is
	// governed by MaxQueueWait/MaxQueueDepth.
	MaxSessions int
	// MaxQueueWait bounds how long a request may wait for a session slot
	// once all MaxSessions are busy; past it the request is shed with
	// ErrOverloaded instead of blocking forever behind a saturated
	// service. 0 (the default) waits indefinitely — the pre-hardening
	// behaviour — though a request context can still cancel the wait.
	MaxQueueWait time.Duration
	// MaxQueueDepth bounds how many requests may wait for a slot at once;
	// a request arriving at a full queue is shed immediately with
	// ErrOverloaded (SEDA-style admission control: bounded queue, bounded
	// wait, load shedding beyond both). 0 means unbounded; negative values
	// are rejected with ErrConfig.
	MaxQueueDepth int
	// SessionIdleTimeout bounds the gap between successful Feed calls on a
	// streaming session (the open→first-Feed gap counts too). A session
	// idle past it is resolved with ErrSessionStalled by the lifecycle
	// watchdog, releasing its MaxSessions slot — a client that opens a
	// session and vanishes cannot leak a slot. Failed feeds (overflow, an
	// injected fault) do not reset the clock: refused chunks are not
	// progress. Time spent inside an in-flight Feed call does not count
	// toward the gap — a scan that outruns the bound on a loaded box is
	// work, not a stall (SessionMaxLifetime bounds it instead). 0 (the
	// default) disables the bound — the legacy unbounded behaviour.
	// Enforcement granularity is a quarter of the tightest enabled bound,
	// clamped to [1ms, 1s].
	SessionIdleTimeout time.Duration
	// SessionMaxLifetime bounds a streaming session's whole open→resolution
	// span, however actively it is fed; past it the watchdog resolves the
	// session with ErrSessionExpired. A client feeding one sample per
	// second is making "progress" the idle bound never sees — this bound
	// caps the total slot-hold time. 0 disables it.
	SessionMaxLifetime time.Duration
	// ReorderWindow bounds, in samples, how far ahead of the in-order
	// delivery frontier a framed session (FeedFrame) buffers out-of-order
	// audio per role. Once buffered data runs past it, the oldest gap is
	// declared lost instead of waiting for a retransmission — the
	// structural repair bound, a pure function of the frame sequence, so
	// framed decisions stay deterministic. 0 means frame.DefaultWindow;
	// negative values are rejected with ErrConfig.
	ReorderWindow int
	// GapRepairTimeout bounds how long a framed session waits, in wall-
	// clock time, for a retransmission to repair a reassembly gap; past
	// it the lifecycle watchdog declares the gap lost. 0 disables the
	// wall-clock deadline (gaps then expire only structurally or at
	// FinishFeed); negative values are rejected with ErrConfig.
	GapRepairTimeout time.Duration
}

// DeviceSpec describes one session device's placement and hardware quirks
// (mirrors the public piano.DeviceSpec).
type DeviceSpec struct {
	Name         string
	X, Y         float64
	Room         int
	ClockSkewPPM float64
}

// Request is one authentication session: a device pair, an optional set of
// interfering PIANO users, and the session seed.
type Request struct {
	// Auth and Vouch are the authenticating and vouching devices.
	Auth, Vouch DeviceSpec
	// Interferers are other PIANO users' devices in the scene; during the
	// session each plays two randomized reference signals at random times
	// (the Fig. 2a multi-user scenario). They are placed in the
	// authenticating device's room.
	Interferers []DeviceSpec
	// Seed drives every random draw of this session (0 → 1). Equal
	// requests with equal seeds produce bit-identical results, serial or
	// concurrent.
	Seed int64
	// ThresholdM overrides the service's τ for this session (0 → service
	// default).
	ThresholdM float64
	// Environment overrides the ambient scenario (0 → service default).
	Environment acoustic.Environment
}

// AuthService is the long-lived batched authentication server. It is safe
// for concurrent use; sessions run concurrently up to MaxSessions while
// sharing one detector.
type AuthService struct {
	cfg Config
	// The one detection engine every session scans through: a detector
	// with its pooled scan workspaces.
	det *detect.Detector

	sem      chan struct{} // session slots
	draining chan struct{} // closed when Close begins: sheds queued waiters

	// watchdogDone is closed when the lifecycle watchdog goroutine exits
	// (nil when no lifecycle bound is configured — no watchdog runs).
	watchdogDone chan struct{}

	mu       sync.Mutex
	closed   bool
	waiters  int // requests currently queued for a slot
	inFlight sync.WaitGroup
	sessions uint64
	streams  map[*Session]struct{} // open client sessions (reaped by the watchdog, force-resolved on Close)
}

// New validates cfg and builds the service's one detection engine: the FFT
// plan for the configured window length is built and pinned, and the
// detector's Workers+1 workspaces are prewarmed (the full-length spectrum
// buffers, the packed FFT scratch, and, when the configured steps stream,
// the sliding-DFT state and its rotation table), so steady-state sessions
// run the band-limited engine allocation-free from the first request.
func New(cfg Config) (*AuthService, error) {
	if err := cfg.Core.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = 4 * cfg.Workers
	}
	det, err := detect.New(cfg.Core.Detect)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	// One workspace per worker plus one for the submitting goroutine.
	if err := det.Prewarm(cfg.Core.Signal, cfg.Workers+1); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s := &AuthService{
		cfg:      cfg,
		det:      det,
		sem:      make(chan struct{}, cfg.MaxSessions),
		draining: make(chan struct{}),
		streams:  make(map[*Session]struct{}),
	}
	if every := watchdogInterval(cfg.SessionIdleTimeout, cfg.SessionMaxLifetime, cfg.GapRepairTimeout); every > 0 {
		s.watchdogDone = make(chan struct{})
		go s.watchdog(every)
	}
	return s, nil
}

// Sessions returns the number of sessions completed successfully so far
// (requests that failed validation or errored out are not counted).
func (s *AuthService) Sessions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions
}

// begin reserves a session slot. Admission is deadline-aware and
// drain-aware: while all MaxSessions slots are busy the request waits at
// most MaxQueueWait (0 → indefinitely) in a queue at most MaxQueueDepth
// deep (0 → unbounded), sheds with ErrOverloaded past either bound,
// aborts with ctx.Err() if the caller gives up, and is turned away with
// ErrClosed the moment Close starts draining — a waiter already counted
// in inFlight must never be admitted to run a full session after Close
// began (the PR-6 Close/begin race).
func (s *AuthService) begin(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.inFlight.Add(1)
	s.mu.Unlock()

	// Fast path: a free slot admits without queue accounting.
	select {
	case s.sem <- struct{}{}:
		return s.admitted()
	default:
	}

	// Queue path: bounded depth, bounded wait, cancellable, drain-aware.
	if !s.enqueue() {
		s.inFlight.Done()
		return ErrOverloaded
	}
	defer s.dequeue()
	var timeout <-chan time.Time
	if s.cfg.MaxQueueWait > 0 {
		t := time.NewTimer(s.cfg.MaxQueueWait)
		defer t.Stop()
		timeout = t.C
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case s.sem <- struct{}{}:
		return s.admitted()
	case <-s.draining:
		s.inFlight.Done()
		return ErrClosed
	case <-timeout:
		s.inFlight.Done()
		return ErrOverloaded
	case <-done:
		s.inFlight.Done()
		return ctx.Err()
	}
}

// admitted re-checks closed after slot acquisition: a select racing Close
// may take the slot case even though draining is also ready, and a session
// admitted then would outlive the drain. The slot is given back and the
// caller sheds with ErrClosed.
func (s *AuthService) admitted() error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		<-s.sem
		s.inFlight.Done()
		return ErrClosed
	}
	return nil
}

// enqueue reserves a wait-queue position, refusing when the queue is
// already MaxQueueDepth deep.
func (s *AuthService) enqueue() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.MaxQueueDepth > 0 && s.waiters >= s.cfg.MaxQueueDepth {
		return false
	}
	s.waiters++
	return true
}

func (s *AuthService) dequeue() {
	s.mu.Lock()
	s.waiters--
	s.mu.Unlock()
}

func (s *AuthService) end() {
	<-s.sem
	s.inFlight.Done()
}

// sessionConfig applies a request's overrides to the base config.
func (s *AuthService) sessionConfig(req Request) core.Config {
	cfg := s.cfg.Core
	if req.ThresholdM > 0 {
		cfg.ThresholdM = req.ThresholdM
	}
	if req.Environment != 0 {
		cfg.World.Environment = req.Environment
	}
	return cfg
}

// validateRequest rejects request parameters that would otherwise be
// silently misinterpreted: τ is an access-control parameter, so NaN/±Inf
// (which pass a plain `< 0` check) and negatives are errors rather than
// "use the service default", and an environment value must name a known
// scenario instead of falling through to some profile.
func validateRequest(req Request) error {
	switch {
	case math.IsNaN(req.ThresholdM) || math.IsInf(req.ThresholdM, 0):
		return fmt.Errorf("service: threshold %g m is not a finite value", req.ThresholdM)
	case req.ThresholdM < 0:
		return fmt.Errorf("service: threshold %g m must be positive (or 0 for the service default)", req.ThresholdM)
	}
	if req.Environment != 0 && !acoustic.KnownEnvironment(req.Environment) {
		return fmt.Errorf("service: unknown environment %d (known: quiet through street, or 0 for the service default)", int(req.Environment))
	}
	return nil
}

// AuthenticateContext runs one complete PIANO session under ctx and
// returns the access decision: a Session born fed (scanned through the
// shared detector as it opens), resolved before returning and
// bit-identical to a serial run of the same request. It is never
// registered for reaping: Close drains it, and the lifecycle bounds never
// apply to it. Failure semantics (see also ARCHITECTURE.md "Failure
// semantics"):
//
//   - invalid request parameters error before admission;
//   - admission sheds with ErrOverloaded past MaxQueueWait/MaxQueueDepth,
//     ErrClosed once Close has begun, or ctx.Err() if the caller gives up
//     in the queue;
//   - after admission, cancellation is cooperative: the session observes
//     ctx between protocol steps and between scan hop blocks and returns
//     ctx.Err(), freeing its slot and scan helpers mid-scan;
//   - a panic anywhere in the session pipeline is recovered into
//     ErrInternal (errors.Is; the *InternalError carries the stack), the
//     poisoned scan workspace is discarded, and a replacement is
//     re-prewarmed — the service keeps serving.
func (s *AuthService) AuthenticateContext(ctx context.Context, req Request) (*core.Result, error) {
	sn, err := s.open(ctx, req, false)
	if err != nil {
		return nil, err
	}
	res, err := sn.Result()
	if err != nil {
		sn.resolve(nil, err) // a batch session ends with its call
		return nil, err
	}
	return res, nil
}

// buildSession constructs one session's devices, interferers, seeded RNG,
// and authenticator (with the service's detector attached) from a request.
// Batch and streaming sessions both open through it, and its RNG draws
// follow the serial Deployment path's order.
func (s *AuthService) buildSession(req Request) (*core.Authenticator, []core.ExtraPlay, error) {
	cfg := s.sessionConfig(req)

	// Shared with piano.NewDeployment (device.NewSessionDevice) so service
	// sessions build devices identically to the serial path.
	mk := func(spec DeviceSpec, fallback string) (*device.Device, error) {
		return device.NewSessionDevice(spec.Name, fallback, spec.X, spec.Y, spec.Room, spec.ClockSkewPPM)
	}
	auth, err := mk(req.Auth, "authenticating-device")
	if err != nil {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	vouch, err := mk(req.Vouch, "vouching-device")
	if err != nil {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	interferers := make([]*device.Device, 0, len(req.Interferers))
	for i, spec := range req.Interferers {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("interferer-%d", i+1)
		}
		dev, err := attack.NewAttackerDevice(name, [2]float64{spec.X, spec.Y}, req.Auth.Room)
		if err != nil {
			return nil, nil, fmt.Errorf("service: %w", err)
		}
		interferers = append(interferers, dev)
	}

	// The session-private RNG stream: every draw this session makes —
	// interference schedules, reference-signal construction, latency and
	// processing-delay realizations, channel geometry, ambient noise —
	// comes from here, in the same order as the serial Deployment path,
	// which is what makes concurrent results bit-identical to serial ones.
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	a, err := core.NewAuthenticator(cfg, auth, vouch, rng)
	if err != nil {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	a.UseDetector(s.det)

	var plays []core.ExtraPlay
	if len(interferers) > 0 {
		plays, err = attack.Interference(cfg.Signal, interferers, rng)
		if err != nil {
			return nil, nil, fmt.Errorf("service: %w", err)
		}
	}
	return a, plays, nil
}

// Close stops admission, sheds every request still waiting for a session
// slot (they return ErrClosed), force-resolves every open streaming
// session to ErrClosed (a streaming session holds its slot until its
// decision, so an abandoned half-fed stream would otherwise stall the
// drain forever), drains the sessions already admitted, and waits for the
// lifecycle watchdog to exit, so no service goroutine outlives it.
// Subsequent AuthenticateContext calls return ErrClosed. Close is idempotent.
func (s *AuthService) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	// Wake every waiter parked on the slot queue before draining: a
	// goroutine already counted in inFlight but not yet holding a slot
	// must shed, or inFlight.Wait would admit it mid-drain (or deadlock
	// behind sessions that never free enough slots).
	close(s.draining)
	open := make([]*Session, 0, len(s.streams))
	for sn := range s.streams {
		open = append(open, sn)
	}
	s.mu.Unlock()
	for _, sn := range open {
		sn.resolve(nil, ErrClosed)
	}
	s.inFlight.Wait()
	// The watchdog exits on draining; a sweep racing this drain can only
	// lose the first-writer-wins race on sessions Close already resolved.
	// Waiting for it here means Close never leaves a goroutine behind.
	if s.watchdogDone != nil {
		<-s.watchdogDone
	}
}

// replenish rebuilds one prewarmed scan workspace after a panic poisoned
// and discarded one, restoring the steady-state "no cold-start
// allocations" property chaos would otherwise erode. Best-effort: if it
// fails, the next scan simply rebuilds its own scratch on checkout.
func (s *AuthService) replenish() {
	_ = s.det.Prewarm(s.cfg.Core.Signal, 1)
}
