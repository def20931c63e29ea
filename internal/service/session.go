package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/detect"
	"github.com/acoustic-auth/piano/internal/faultinject"
	"github.com/acoustic-auth/piano/internal/frame"
)

// Streaming-session sentinels, re-exported from the layers that own them so
// service callers match every failure mode against one package.
var (
	// ErrStreamDecided: audio arrived after the session reached its
	// decision (or after Close resolved it).
	ErrStreamDecided = core.ErrStreamDecided
	// ErrFeedOverflow: a chunk would exceed the session's declared
	// recording length; it was rejected whole and the session stays open.
	ErrFeedOverflow = detect.ErrFeedOverflow
	// ErrNeedMoreAudio: Result was called before enough audio arrived to
	// decide. The wrapped message carries how many samples are still
	// missing; keep feeding and retry.
	ErrNeedMoreAudio = errors.New("service: streaming session needs more audio")
	// ErrInsufficientAudio: transport loss crossed the point where a
	// decision would be a guess — cumulative loss over the detect config's
	// MaxLossFraction ceiling, or loss inside the peak's fine-scan band.
	// It resolves the session through the same first-writer-wins path as
	// every other resolution; the slot is released.
	ErrInsufficientAudio = detect.ErrInsufficientAudio
	// ErrFrameCorrupt: a frame's payload contradicts its CRC. The frame
	// was rejected whole — corrupt audio is never scored — and the session
	// stays open for a retransmission.
	ErrFrameCorrupt = frame.ErrCorrupt
	// ErrFrameRange: a frame's samples fall outside the declared recording
	// (or behind already-delivered audio with different sample values).
	// Rejected whole; session open.
	ErrFrameRange = frame.ErrRange
)

// Session is one admitted streaming authentication session: Steps I–III
// already ran, and the session now consumes each role's microphone PCM in
// chunks, deciding as soon as both recordings have revealed their signals —
// typically well before either recording is complete. AuthenticateContext
// runs the same Session born fed and resolves it before returning.
//
// A Session occupies one of the service's MaxSessions slots from open
// until it resolves — by decision, by error, by Close (either the session's
// or the service's), by context cancellation, or by the lifecycle watchdog
// (ErrSessionStalled past Config.SessionIdleTimeout, ErrSessionExpired past
// Config.SessionMaxLifetime). Every resolution path releases the slot
// exactly once. The methods are safe for concurrent use; the intended shape
// is one feeder goroutine per role.
type Session struct {
	svc    *AuthService
	as     *core.AuthStream
	ctx    context.Context
	cancel context.CancelFunc

	// Lifecycle-watchdog clocks: when the session was opened, and the
	// UnixNano of the last call that placed fresh samples (initialized to
	// the open time, so the open→first-Feed gap is bounded too). lastFeed
	// is atomic because feeders store it while the watchdog loads it
	// off-lock. active counts client calls currently running: while it is
	// nonzero the client is mid-delivery (or waiting on the decision scan)
	// and the idle clock does not tick — a scan that outlasts
	// SessionIdleTimeout is work, not a stall (only SessionMaxLifetime
	// bounds it).
	opened   time.Time
	lastFeed atomic.Int64
	active   atomic.Int32

	// ingest holds each role's reassembly state, indexed by core.Role: the
	// only way audio reaches the scan engine.
	ingest [2]roleIngest

	mu       sync.Mutex
	resolved bool
	res      *core.Result
	err      error
}

// roleIngest is one role's ingestion state: the reassembler turning Feed
// chunks (placed at the frontier) and out-of-order frames (placed at their
// offsets) into the in-order feed, built on the role's first call. Its
// mutex serializes Feed/FeedFrame/FinishFeed/gap-expiry for the role and is
// always taken before the engine's own locks, so delivery order into the
// scan — the thing the determinism contract hangs on — is the reassembler's
// order, never a race between callers.
type roleIngest struct {
	mu    sync.Mutex
	reasm *frame.Reassembler
}

// OpenSession admits and opens a streaming session for the request:
// validation and admission control are identical to AuthenticateContext
// (ErrOverloaded, ErrClosed, ctx.Err() from the queue), and Steps I–III run
// before it returns, so the returned session is ready to ingest audio. The
// ctx governs the whole session: canceling it resolves an undecided session
// to ctx's error. The caller must resolve the session — feed it to a
// decision or Close it — or its slot stays occupied.
func (s *AuthService) OpenSession(ctx context.Context, req Request) (*Session, error) {
	return s.open(ctx, req, true)
}

// open validates, admits and opens one session for OpenSession (client:
// the caller feeds it) or AuthenticateContext (born fed).
func (s *AuthService) open(ctx context.Context, req Request, client bool) (*Session, error) {
	if err := validateRequest(req); err != nil {
		return nil, err
	}
	// Chaos hook: delay → queue pressure, error → forced shed.
	if err := faultinject.Fire(faultinject.SiteServiceAcquire); err != nil {
		return nil, err
	}
	if err := s.begin(ctx); err != nil {
		return nil, err
	}
	sess, err := s.openStream(ctx, req, client)
	if err != nil {
		// A scan-worker panic arrives as *detect.PanicError.
		var pe *detect.PanicError
		if errors.As(err, &pe) {
			err = &InternalError{Panic: pe.Value, Stack: pe.Stack}
		}
		if errors.Is(err, ErrInternal) {
			s.replenish()
		}
		s.end()
		return nil, err
	}
	return sess, nil
}

// openStream builds the session once a slot is held. Panic isolation for
// the open phase (device build, scene render, a born-fed scan) lives here.
// Only a client's session is registered for the watchdog and Close to reap
// if abandoned; the service resolves a batch session itself.
func (s *AuthService) openStream(ctx context.Context, req Request, client bool) (sess *Session, err error) {
	defer func() {
		if r := recover(); r != nil {
			sess, err = nil, &InternalError{Panic: r, Stack: debug.Stack()}
		}
	}()
	// Chaos hook: panic → session crash, delay → slot starvation.
	if err := faultinject.Fire(faultinject.SiteServiceSession); err != nil {
		return nil, err
	}
	a, plays, err := s.buildSession(req)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, cancel := context.WithCancel(ctx)
	open := a.OpenFedStreamContext
	if client {
		open = a.OpenStreamContext
	}
	as, err := open(sctx, plays...)
	if err != nil {
		cancel()
		// The caller canceled: return the bare ctx.Err(), not which
		// device's scan noticed first.
		if ctxe := sctx.Err(); ctxe != nil && errors.Is(err, ctxe) {
			return nil, ctxe
		}
		return nil, fmt.Errorf("service: %w", err)
	}
	sess = &Session{svc: s, as: as, ctx: sctx, cancel: cancel, opened: time.Now()}
	if !client {
		return sess, nil
	}
	sess.lastFeed.Store(sess.opened.UnixNano())
	// Register under the service lock, re-checking closed: a Close racing
	// this open may already have swept the streams map, and a session
	// registered after the sweep would never be force-resolved.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, ErrClosed
	}
	s.streams[sess] = struct{}{}
	s.mu.Unlock()
	return sess, nil
}

// resolve finishes the session exactly once: records the outcome, cancels
// any in-flight scan, unregisters from the service, and releases the
// session slot. First writer wins; later calls are no-ops.
func (sn *Session) resolve(res *core.Result, err error) bool {
	sn.mu.Lock()
	if sn.resolved {
		sn.mu.Unlock()
		return false
	}
	sn.resolved = true
	sn.res, sn.err = res, err
	sn.mu.Unlock()
	sn.cancel()
	s := sn.svc
	s.mu.Lock()
	delete(s.streams, sn)
	if err == nil {
		s.sessions++
	}
	s.mu.Unlock()
	s.end()
	return true
}

// outcome returns the recorded resolution (valid once resolved).
func (sn *Session) outcome() (*core.Result, error, bool) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.res, sn.err, sn.resolved
}

// fail classifies an error out of the streaming engine and resolves the
// session when it is fatal: a recovered scan-worker panic becomes
// ErrInternal (with the workspace replenished) and a session-context error
// becomes that error. Non-fatal errors — an over-length chunk, audio after
// the decision — pass through typed with the session still open.
func (sn *Session) fail(err error) error {
	if errors.Is(err, ErrFeedOverflow) || errors.Is(err, ErrStreamDecided) {
		return err
	}
	if errors.Is(err, ErrInsufficientAudio) {
		// Too much of the recording is gone for any decision to be
		// trustworthy. This is fatal and final: resolve the session (first
		// writer wins — a decision that raced in first stands) rather than
		// leave a slot occupied by a session that can never decide.
		sn.resolve(nil, err)
		if _, rerr, done := sn.outcome(); done && rerr != nil {
			return rerr
		}
		return err
	}
	var pe *detect.PanicError
	if errors.As(err, &pe) {
		ie := &InternalError{Panic: pe.Value, Stack: pe.Stack}
		sn.svc.replenish()
		sn.resolve(nil, ie)
		return ie
	}
	if ctxe := sn.ctx.Err(); ctxe != nil && errors.Is(err, ctxe) {
		sn.resolve(nil, ctxe)
		// The session context is also canceled by resolve itself, so a
		// feed whose scan was interrupted because the watchdog (or Close)
		// resolved the session first reports the session's actual
		// resolution error, not a bare context error — callers see the
		// same typed outcome no matter when their feed lost the race.
		if _, rerr, done := sn.outcome(); done && rerr != nil {
			return rerr
		}
		return ctxe
	}
	return fmt.Errorf("service: %w", err)
}

// Recording returns the role's complete rendered recording — the simulated
// microphone the caller feeds chunks from (nil only when the session was
// pre-decided, out of Bluetooth range). Callers must not mutate it.
func (sn *Session) Recording(role core.Role) []int16 { return sn.as.Recording(role) }

// EarlyFeedLen returns the role's decision horizon: once every role has
// been fed this much, Result decides without the rest of the recording.
func (sn *Session) EarlyFeedLen(role core.Role) int { return sn.as.EarlyFeedLen(role) }

// Fed returns how many samples of the role's recording have arrived.
func (sn *Session) Fed(role core.Role) int { return sn.as.Fed(role) }

// enter admits one client call: it returns the session's resolution error
// (ErrStreamDecided after a decision) once resolved, and otherwise counts
// the call active until the deferred exit.
func (sn *Session) enter() error {
	if _, rerr, done := sn.outcome(); done {
		if rerr != nil {
			return rerr
		}
		return ErrStreamDecided
	}
	sn.active.Add(1)
	return nil
}

// exit ends a call admitted by enter. A panic anywhere in the call is
// recovered here, as openStream recovers one in the open phase: the
// session resolves ErrInternal and *err reports it.
func (sn *Session) exit(err *error) {
	if r := recover(); r != nil {
		*err = sn.crash(r)
	}
	sn.active.Add(-1)
}

// crash resolves the session to ErrInternal for a recovered panic,
// replenishing the engine's workspace the poisoned scan discarded.
func (sn *Session) crash(r any) error {
	ie := &InternalError{Panic: r, Stack: debug.Stack()}
	sn.svc.replenish()
	sn.resolve(nil, ie)
	return ie
}

// Feed ingests the next chunk of the role's recording from a trusted,
// in-order transport: the chunk lands at the role's delivery frontier and
// advances the scan. Typed failures: ErrFeedOverflow (chunk rejected
// whole, session open), ErrStreamDecided (decision already made — or the
// session's own resolution error, if it resolved to one), ErrInternal (a
// panic anywhere in the feed path; the session is resolved and its slot
// released), or the session context's error once canceled. Feed and
// FeedFrame share one reassembler per role, so they may be interleaved.
func (sn *Session) Feed(role core.Role, pcm []int16) (err error) {
	if err := sn.enter(); err != nil {
		return err
	}
	defer sn.exit(&err)
	// Chaos hook: perturb ingestion itself (error → one failed feed with
	// the session open; panic → feeder crash, session resolves internal).
	if ferr := faultinject.Fire(faultinject.SiteStreamFeed); ferr != nil {
		return fmt.Errorf("service: feed: %w", ferr)
	}
	return sn.ingestStep(role, func(r *frame.Reassembler, now time.Time) ([]frame.Delivery, bool, error) {
		dv, fresh, perr := r.Place(r.Next(), pcm, now)
		if perr != nil {
			perr = fmt.Errorf("%w: %d + %d samples", ErrFeedOverflow, r.Next(), len(pcm))
		}
		return dv, fresh, perr
	})
}

// FeedFrame ingests one framed chunk of the role's recording from a lossy
// transport. Frames may arrive out of order, duplicated, or overlapping;
// the per-role reassembler buffers them (bounded by Config.ReorderWindow)
// and delivers contiguous runs to the same scan path as Feed, so a framed
// session on a clean transport decides bit-identically to a Feed session
// and to AuthenticateContext.
//
// Typed failures, all leaving the session open: ErrFrameCorrupt (CRC
// mismatch — the frame is rejected whole and never scored; resend it) and
// ErrFrameRange (samples outside the declared recording). When buffered
// audio runs more than the reorder window past the in-order frontier, the
// oldest gap is declared lost instead of waiting — and once cumulative
// loss crosses the detect ceiling the session resolves to
// ErrInsufficientAudio (fatal, slot released). ErrStreamDecided,
// ErrInternal, and context errors follow Feed's taxonomy.
func (sn *Session) FeedFrame(role core.Role, f frame.Frame) (err error) {
	if err := sn.enter(); err != nil {
		return err
	}
	defer sn.exit(&err)
	// Chaos hook: perturb framed ingestion (error → one failed frame with
	// the session open; panic → feeder crash, session resolves internal;
	// delay → congested transport).
	if ferr := faultinject.Fire(faultinject.SiteFrameFeed); ferr != nil {
		return fmt.Errorf("service: frame feed: %w", ferr)
	}
	return sn.ingestStep(role, func(r *frame.Reassembler, now time.Time) ([]frame.Delivery, bool, error) {
		dv, fresh, ferr := r.Add(f, now)
		if ferr != nil {
			ferr = fmt.Errorf("service: frame rejected: %w", ferr)
		}
		return dv, fresh, ferr
	})
}

// FinishFeed declares the role's transport finished: every gap still
// awaiting retransmission and the entire unreceived tail of the recording
// are declared lost, unlocking whatever audio was buffered behind them.
// After FinishFeed the role is fully fed (data plus loss), so TryResult
// will either decide from the surviving windows or report
// ErrInsufficientAudio — it will never wait for more audio from this role.
// A role never fed has its whole recording declared lost. Idempotent.
func (sn *Session) FinishFeed(role core.Role) (err error) {
	if err := sn.enter(); err != nil {
		return err
	}
	defer sn.exit(&err)
	return sn.ingestStep(role, func(r *frame.Reassembler, _ time.Time) ([]frame.Delivery, bool, error) {
		return r.Flush(), false, nil
	})
}

// ingestStep runs one step on the role's reassembler under its lock and
// replays the deliveries it unlocked into the scan; a step that placed
// fresh samples resets the idle clock. Refused payloads (overflow, corrupt,
// out of range), duplicates and empty chunks are not progress, so a client
// spamming them still stalls out. A step's own error is returned after any
// deliveries (there are none today — a refused payload never advances the
// frontier — but the order is load-bearing if that ever changes).
func (sn *Session) ingestStep(role core.Role, step func(*frame.Reassembler, time.Time) ([]frame.Delivery, bool, error)) error {
	ing, err := sn.lockIngest(role)
	if err != nil {
		return err
	}
	defer ing.mu.Unlock()
	dv, fresh, serr := step(ing.reasm, time.Now())
	if err := sn.deliver(role, dv); err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	if fresh {
		sn.lastFeed.Store(time.Now().UnixNano())
	}
	return nil
}

// lockIngest returns the role's ingest cell locked, building its
// reassembler on first use.
func (sn *Session) lockIngest(role core.Role) (*roleIngest, error) {
	if int(role) < 0 || int(role) >= len(sn.ingest) {
		return nil, fmt.Errorf("service: unknown stream role %d", int(role))
	}
	ing := &sn.ingest[role]
	ing.mu.Lock()
	if ing.reasm == nil {
		rec := sn.as.Recording(role)
		if rec == nil {
			// Pre-decided stream (Bluetooth out of range): no recording to
			// ingest against.
			ing.mu.Unlock()
			return nil, ErrStreamDecided
		}
		r, err := frame.NewReassembler(len(rec), sn.svc.cfg.ReorderWindow)
		if err != nil {
			ing.mu.Unlock()
			return nil, fmt.Errorf("service: %w", err)
		}
		ing.reasm = r
	}
	return ing, nil
}

// deliver replays the reassembler's in-order deliveries into the scan
// engine: data spans through the Feed path, lost spans through FeedLost
// (zero-filled, their windows deterministically excluded from scoring).
// Called with the role's ingest mutex held, so the engine sees exactly the
// reassembler's delivery order.
func (sn *Session) deliver(role core.Role, dv []frame.Delivery) error {
	for _, d := range dv {
		var err error
		if d.Lost > 0 {
			err = sn.as.FeedLost(role, d.Lost)
		} else {
			err = sn.as.Feed(role, d.PCM)
		}
		if err != nil {
			return sn.fail(err)
		}
	}
	return nil
}

// FrameStats returns the role's ingestion counters: Feed chunks and frames
// alike (zero for a role never fed).
func (sn *Session) FrameStats(role core.Role) frame.Stats {
	ing, err := sn.lockIngest(role)
	if err != nil {
		return frame.Stats{}
	}
	defer ing.mu.Unlock()
	return ing.reasm.Stats()
}

// expireGaps is the lifecycle watchdog's entry point for the wall-clock
// gap-repair bound: any leading reassembly gap older than timeout is
// declared lost, releasing the audio buffered behind it into the scan. A
// role whose lock is held is skipped — it is being fed, which is progress,
// and the next sweep retries it — so the watchdog never waits behind a
// feed's scan. A panic out of the replay (a scan-worker crash) resolves
// the session to ErrInternal exactly as a Feed-path panic would.
func (sn *Session) expireGaps(now time.Time, timeout time.Duration) {
	defer func() {
		if r := recover(); r != nil {
			sn.crash(r)
		}
	}()
	for r := range sn.ingest {
		ing := &sn.ingest[r]
		if !ing.mu.TryLock() {
			continue
		}
		func() {
			defer ing.mu.Unlock() // deferred: a panicking replay must not wedge the role
			if ing.reasm == nil {
				return
			}
			if dv := ing.reasm.Expire(now, timeout); len(dv) > 0 {
				// The error (insufficient audio, cancellation) resolves the
				// session inside fail; the watchdog itself has no caller to
				// report to.
				_ = sn.deliver(core.Role(r), dv)
			}
		}()
	}
}

// TryResult attempts the decision over the audio fed so far. need > 0
// means the session is healthy but undecided: at least that many more
// samples are required for some role. need == 0 with a nil error is the
// decision (cached; the slot is released and later calls keep returning
// it). Errors follow Feed's taxonomy. Decisions are bit-identical to
// AuthenticateContext on the same request — fed any chunking, at any
// GOMAXPROCS, decided at the horizon or after the full feed.
func (sn *Session) TryResult() (res *core.Result, need int, err error) {
	if sn.enter() != nil {
		r, rerr, _ := sn.outcome()
		return r, 0, rerr
	}
	defer sn.exit(&err)
	r, need, terr := sn.as.TryResult()
	if terr != nil {
		return nil, 0, sn.fail(terr)
	}
	if need > 0 {
		return nil, need, nil
	}
	sn.resolve(r, nil)
	return r, 0, nil
}

// Result is TryResult for callers done feeding: an undecided session
// reports ErrNeedMoreAudio (wrapped with the missing sample count) instead
// of a need.
func (sn *Session) Result() (*core.Result, error) {
	res, need, err := sn.TryResult()
	if err != nil {
		return nil, err
	}
	if need > 0 {
		return nil, fmt.Errorf("%w: %d more samples required", ErrNeedMoreAudio, need)
	}
	return res, nil
}

// Close abandons an undecided session, resolving it to context.Canceled
// and releasing its slot; after a decision it is a no-op. Idempotent.
func (sn *Session) Close() {
	sn.resolve(nil, context.Canceled)
}
