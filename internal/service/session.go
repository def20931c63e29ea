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
	// ErrMixedFeed: a role was fed through both Feed (trusted transport)
	// and FeedFrame (lossy transport). The two paths have incompatible
	// ordering contracts, so a role commits to one on its first feed.
	ErrMixedFeed = errors.New("service: role fed through both Feed and FeedFrame")
)

// Session is one admitted streaming authentication session: Steps I–III
// already ran, and the session now consumes each role's microphone PCM in
// chunks, deciding as soon as both recordings have revealed their signals —
// typically well before either recording is complete.
//
// A Session occupies one of the service's MaxSessions slots from OpenSession
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
	// UnixNano of the last successful Feed (initialized to the open time,
	// so the open→first-Feed gap is bounded too). lastFeed is atomic
	// because feeders store it while the watchdog loads it off-lock.
	// active counts Feed/TryResult calls currently running: while it is
	// nonzero the client is mid-delivery (or waiting on the decision scan)
	// and the idle clock does not tick — a scan that outlasts
	// SessionIdleTimeout is work, not a stall (only SessionMaxLifetime
	// bounds it).
	opened   time.Time
	lastFeed atomic.Int64
	active   atomic.Int32

	// ingest holds each role's lossy-transport reassembly state, indexed
	// by core.Role. A role that never sees a FeedFrame keeps a nil
	// reassembler and costs nothing.
	ingest [2]roleIngest

	mu       sync.Mutex
	resolved bool
	res      *core.Result
	err      error
}

// roleIngest is one role's framed-transport state: the jitter buffer
// reassembling out-of-order frames into the in-order feed, and the
// plain/framed commitment that keeps the two transports from interleaving.
// Its mutex serializes FeedFrame/FinishFeed/gap-expiry for the role and is
// always taken before the engine's own locks, so delivery order into the
// scan — the thing the determinism contract hangs on — is the reassembler's
// order, never a race between callers.
type roleIngest struct {
	mu    sync.Mutex
	reasm *frame.Reassembler
	plain bool // role committed to Feed; FeedFrame is refused
}

// OpenSession admits and opens a streaming session for the request:
// validation and admission control are identical to AuthenticateContext
// (ErrOverloaded, ErrClosed, ctx.Err() from the queue), and Steps I–III run
// before it returns, so the returned session is ready to ingest audio. The
// ctx governs the whole session: canceling it resolves an undecided session
// to ctx's error. The caller must resolve the session — feed it to a
// decision or Close it — or its slot stays occupied.
func (s *AuthService) OpenSession(ctx context.Context, req Request) (*Session, error) {
	if err := validateRequest(req); err != nil {
		return nil, err
	}
	// Chaos hook: same admission perturbation point as the batch path.
	if err := faultinject.Fire(faultinject.SiteServiceAcquire); err != nil {
		return nil, err
	}
	if err := s.begin(ctx); err != nil {
		return nil, err
	}
	sess, err := s.openStream(ctx, req)
	if err != nil {
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

// openStream builds and registers the session once a slot is held. Panic
// isolation for the open phase (device build, scene render) lives here.
func (s *AuthService) openStream(ctx context.Context, req Request) (sess *Session, err error) {
	defer func() {
		if r := recover(); r != nil {
			sess, err = nil, &InternalError{Panic: r, Stack: debug.Stack()}
		}
	}()
	// Chaos hook: same per-session crash point as the batch path.
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
	as, err := a.OpenStreamContext(sctx, plays...)
	if err != nil {
		cancel()
		if ctxe := sctx.Err(); ctxe != nil && errors.Is(err, ctxe) {
			return nil, ctxe
		}
		return nil, fmt.Errorf("service: %w", err)
	}
	sess = &Session{svc: s, as: as, ctx: sctx, cancel: cancel, opened: time.Now()}
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
// ErrInternal (with the workspace replenished, as in the batch path) and a
// session-context error becomes that error. Non-fatal errors — an
// over-length chunk, audio after the decision — pass through typed with the
// session still open.
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
// microphone the caller feeds chunks from (nil once resolved by Close
// without a decision, or when the session was pre-decided).
func (sn *Session) Recording(role core.Role) []int16 { return sn.as.Recording(role) }

// EarlyFeedLen returns the role's decision horizon: once every role has
// been fed this much, Result decides without the rest of the recording.
func (sn *Session) EarlyFeedLen(role core.Role) int { return sn.as.EarlyFeedLen(role) }

// Fed returns how many samples of the role's recording have arrived.
func (sn *Session) Fed(role core.Role) int { return sn.as.Fed(role) }

// Feed ingests one chunk of the role's recording and advances that role's
// scan. Typed failures: ErrFeedOverflow (chunk rejected whole, session
// open), ErrStreamDecided (decision already made — or the session's own
// resolution error, if it resolved to one), ErrInternal (a panic anywhere
// in the feed path; the session is resolved and its slot released), or the
// session context's error once canceled. A panic in the feed path is
// recovered here, mirroring the batch pipeline's session-goroutine
// isolation.
func (sn *Session) Feed(role core.Role, pcm []int16) (err error) {
	if _, rerr, done := sn.outcome(); done {
		if rerr != nil {
			return rerr
		}
		return ErrStreamDecided
	}
	sn.active.Add(1)
	defer sn.active.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			ie := &InternalError{Panic: r, Stack: debug.Stack()}
			sn.svc.replenish()
			sn.resolve(nil, ie)
			err = ie
		}
	}()
	// Chaos hook: perturb ingestion itself (error → one failed feed with
	// the session open; panic → feeder crash, session resolves internal).
	if ferr := faultinject.Fire(faultinject.SiteStreamFeed); ferr != nil {
		return fmt.Errorf("service: feed: %w", ferr)
	}
	if ing := sn.ingestFor(role); ing != nil {
		ing.mu.Lock()
		if ing.reasm != nil {
			ing.mu.Unlock()
			return ErrMixedFeed
		}
		ing.plain = true
		ing.mu.Unlock()
	}
	if ferr := sn.as.Feed(role, pcm); ferr != nil {
		return sn.fail(ferr)
	}
	// Only a successful feed resets the idle clock: refused chunks
	// (overflow, injected faults) are not progress, so a client spamming
	// garbage still stalls out.
	sn.lastFeed.Store(time.Now().UnixNano())
	return nil
}

// ingestFor returns the role's ingest cell (nil for an unknown role, which
// the engine then rejects with its own typed error).
func (sn *Session) ingestFor(role core.Role) *roleIngest {
	if int(role) < 0 || int(role) >= len(sn.ingest) {
		return nil
	}
	return &sn.ingest[int(role)]
}

// FeedFrame ingests one framed chunk of the role's recording from a lossy
// transport. Frames may arrive out of order, duplicated, or overlapping;
// the per-role reassembler buffers them (bounded by Config.ReorderWindow)
// and delivers contiguous runs to the same scan path as Feed, so a framed
// session on a clean transport decides bit-identically to a Feed session
// and to the batch pipeline.
//
// Typed failures, all leaving the session open: ErrFrameCorrupt (CRC
// mismatch — the frame is rejected whole and never scored; resend it),
// ErrFrameRange (samples outside the declared recording), ErrMixedFeed
// (the role already committed to plain Feed). When buffered audio runs
// more than the reorder window past the in-order frontier, the oldest gap
// is declared lost instead of waiting — and once cumulative loss crosses
// the detect ceiling the session resolves to ErrInsufficientAudio (fatal,
// slot released). ErrStreamDecided, ErrInternal, and context errors follow
// Feed's taxonomy.
func (sn *Session) FeedFrame(role core.Role, f frame.Frame) (err error) {
	if _, rerr, done := sn.outcome(); done {
		if rerr != nil {
			return rerr
		}
		return ErrStreamDecided
	}
	sn.active.Add(1)
	defer sn.active.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			ie := &InternalError{Panic: r, Stack: debug.Stack()}
			sn.svc.replenish()
			sn.resolve(nil, ie)
			err = ie
		}
	}()
	// Chaos hook: perturb framed ingestion (error → one failed frame with
	// the session open; panic → feeder crash, session resolves internal;
	// delay → congested transport).
	if ferr := faultinject.Fire(faultinject.SiteFrameFeed); ferr != nil {
		return fmt.Errorf("service: frame feed: %w", ferr)
	}
	ing := sn.ingestFor(role)
	if ing == nil {
		return fmt.Errorf("service: unknown stream role %d", int(role))
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.plain {
		return ErrMixedFeed
	}
	if ing.reasm == nil {
		rec := sn.as.Recording(role)
		if rec == nil {
			// Pre-decided stream (Bluetooth out of range): no recording to
			// reassemble against.
			return ErrStreamDecided
		}
		r, rerr := frame.NewReassembler(len(rec), sn.svc.cfg.ReorderWindow)
		if rerr != nil {
			return fmt.Errorf("service: %w", rerr)
		}
		ing.reasm = r
	}
	dv, fresh, ferr := ing.reasm.Add(f, time.Now())
	if derr := sn.deliver(role, dv); derr != nil {
		return derr
	}
	if ferr != nil {
		// Typed rejection (corrupt, out of range): nothing was ingested and
		// the session stays open. Returned after any deliveries the frame's
		// arrival unblocked structurally (there are none today — rejected
		// frames never advance the frontier — but the order is load-bearing
		// if that ever changes).
		return fmt.Errorf("service: frame rejected: %w", ferr)
	}
	if fresh {
		// Only a frame that contributed new samples resets the idle clock:
		// duplicate spam must not keep a stalled session alive forever.
		sn.lastFeed.Store(time.Now().UnixNano())
	}
	return nil
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

// FinishFeed declares the role's lossy transport finished: every gap still
// awaiting retransmission and the entire unreceived tail of the recording
// are declared lost, unlocking whatever audio was buffered behind them.
// After FinishFeed the role is fully fed (data plus loss), so TryResult
// will either decide from the surviving windows or report
// ErrInsufficientAudio — it will never wait for more audio from this role.
// Only meaningful for framed roles; a role committed to plain Feed gets
// ErrMixedFeed. Idempotent.
func (sn *Session) FinishFeed(role core.Role) (err error) {
	if _, rerr, done := sn.outcome(); done {
		if rerr != nil {
			return rerr
		}
		return ErrStreamDecided
	}
	sn.active.Add(1)
	defer sn.active.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			ie := &InternalError{Panic: r, Stack: debug.Stack()}
			sn.svc.replenish()
			sn.resolve(nil, ie)
			err = ie
		}
	}()
	ing := sn.ingestFor(role)
	if ing == nil {
		return fmt.Errorf("service: unknown stream role %d", int(role))
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.plain {
		return ErrMixedFeed
	}
	if ing.reasm == nil {
		rec := sn.as.Recording(role)
		if rec == nil {
			return ErrStreamDecided
		}
		// No frame ever arrived: the whole recording is the tail, and
		// Flush below declares all of it lost (which resolves the session
		// ErrInsufficientAudio through the ceiling — the honest outcome for
		// a transport that delivered nothing).
		r, rerr := frame.NewReassembler(len(rec), sn.svc.cfg.ReorderWindow)
		if rerr != nil {
			return fmt.Errorf("service: %w", rerr)
		}
		ing.reasm = r
	}
	return sn.deliver(role, ing.reasm.Flush())
}

// FrameStats returns the role's framed-transport counters (zero for a role
// never fed through FeedFrame).
func (sn *Session) FrameStats(role core.Role) frame.Stats {
	ing := sn.ingestFor(role)
	if ing == nil {
		return frame.Stats{}
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.reasm == nil {
		return frame.Stats{}
	}
	return ing.reasm.Stats()
}

// expireGaps is the lifecycle watchdog's entry point for the wall-clock
// gap-repair bound: any leading reassembly gap older than timeout is
// declared lost, releasing the audio buffered behind it into the scan. A
// panic out of the replay (a scan-worker crash) resolves the session to
// ErrInternal exactly as a Feed-path panic would.
func (sn *Session) expireGaps(now time.Time, timeout time.Duration) {
	defer func() {
		if r := recover(); r != nil {
			ie := &InternalError{Panic: r, Stack: debug.Stack()}
			sn.svc.replenish()
			sn.resolve(nil, ie)
		}
	}()
	for r := range sn.ingest {
		role := core.Role(r)
		ing := &sn.ingest[r]
		func() {
			ing.mu.Lock()
			defer ing.mu.Unlock() // deferred: a panicking replay must not wedge the role
			if ing.reasm == nil {
				return
			}
			if dv := ing.reasm.Expire(now, timeout); len(dv) > 0 {
				// The error (insufficient audio, cancellation) resolves the
				// session inside fail; the watchdog itself has no caller to
				// report to.
				_ = sn.deliver(role, dv)
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
	if r, rerr, done := sn.outcome(); done {
		return r, 0, rerr
	}
	sn.active.Add(1)
	defer sn.active.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			ie := &InternalError{Panic: r, Stack: debug.Stack()}
			sn.svc.replenish()
			sn.resolve(nil, ie)
			res, need, err = nil, 0, ie
		}
	}()
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
