package piano

import (
	"context"
	"errors"
	"fmt"

	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/frame"
	"github.com/acoustic-auth/piano/internal/service"
)

// Role names one of the two participants in a streaming session; each role
// feeds its own microphone's PCM independently.
type Role = core.Role

// The two session roles.
const (
	// RoleAuth is the authenticating device (the voice-powered hub).
	RoleAuth = core.RoleAuth
	// RoleVouch is the vouching device (the user's wearable).
	RoleVouch = core.RoleVouch
)

// Streaming-session failure modes; match with errors.Is.
var (
	// ErrStreamDecided: audio arrived after the session reached its
	// decision (the decision is final; fetch it with Result).
	ErrStreamDecided = service.ErrStreamDecided
	// ErrFeedOverflow: a chunk would exceed the session's declared
	// recording length. It was rejected whole — nothing was ingested —
	// and the session stays open.
	ErrFeedOverflow = service.ErrFeedOverflow
	// ErrNeedMoreAudio: Result was called before enough audio had arrived
	// to decide. Keep feeding and retry.
	ErrNeedMoreAudio = service.ErrNeedMoreAudio
	// ErrInsufficientAudio: the transport lost too much of the recording
	// for any decision to be trustworthy — cumulative loss over the
	// configured ceiling, or loss inside the detected peak's fine-scan
	// band. The session is resolved (slot released); the caller must
	// restart the protocol, never accept a low-confidence answer.
	ErrInsufficientAudio = service.ErrInsufficientAudio
	// ErrFrameMalformed: bytes that are not a frame at all (short header,
	// wrong magic/version, length mismatch). From DecodeFrame only.
	ErrFrameMalformed = frame.ErrMalformed
	// ErrFrameCorrupt: a frame's payload contradicts its CRC. The frame
	// was rejected whole — corrupt audio is never scored — and the
	// session stays open for a retransmission.
	ErrFrameCorrupt = service.ErrFrameCorrupt
	// ErrFrameRange: a frame's samples fall outside the declared
	// recording or contradict already-delivered audio. Rejected whole;
	// session open.
	ErrFrameRange = service.ErrFrameRange
)

// Frame is one wire chunk of a role's PCM on a lossy transport: a sequence
// number, the chunk's sample offset in the recording, a CRC-32 over header
// and payload, and the samples themselves. Build with NewFrame (which
// computes the CRC), serialize with Frame.Encode, parse with DecodeFrame.
type Frame = frame.Frame

// FrameStats counts one role's ingestion traffic, Feed chunks and frames
// alike: accepted payloads, duplicates, CRC rejections, range rejections,
// and samples declared lost.
type FrameStats = frame.Stats

// Degraded reports how much audio a decided session lost to the transport
// (see Decision.Degraded).
type Degraded = core.Degraded

// NewFrame builds a frame for the pcm chunk starting at sample offset,
// computing its CRC. The pcm slice is referenced, not copied.
func NewFrame(seq uint32, offset int, pcm []int16) Frame { return frame.New(seq, offset, pcm) }

// DecodeFrame parses one encoded frame. Typed failures: ErrFrameMalformed
// (not a frame), ErrFrameCorrupt (CRC mismatch).
func DecodeFrame(buf []byte) (Frame, error) { return frame.Decode(buf) }

// AuthSession is one online authentication session: the protocol's
// signal exchange runs at open time, and the session then ingests each
// role's microphone audio in chunks — deciding as soon as both recordings
// have revealed their reference signals, typically well before the
// recordings end (EarlyFeedLen marks the guaranteed decision point).
//
// Determinism contract: the decision is bit-identical to Authenticate on
// the same request — for any chunk sizes, any feeding interleaving, any
// GOMAXPROCS, whether decided early or after the full feed.
//
// A session occupies one of the service's concurrent-session slots until
// it resolves: reach a decision, or Close it. When the service configures
// SessionIdleTimeout/SessionMaxLifetime, a session the client stops
// feeding (or keeps open too long) is resolved ErrSessionStalled /
// ErrSessionExpired by the lifecycle watchdog and its slot reclaimed.
// Methods are safe for concurrent use; the intended shape is one feeder
// goroutine per role.
type AuthSession struct {
	sn *service.Session
}

// OpenSession opens a streaming session (OpenSessionContext with an
// uncancellable context).
func (s *Service) OpenSession(req AuthRequest) (*AuthSession, error) {
	return s.OpenSessionContext(context.Background(), req)
}

// OpenSessionContext validates and admits a streaming session — the same
// admission control, typed failures, and cancellation semantics as
// AuthenticateContext — and runs the protocol's pre-audio steps, so the
// returned session is ready to ingest PCM. Canceling ctx afterwards
// resolves an undecided session to ctx's error.
func (s *Service) OpenSessionContext(ctx context.Context, req AuthRequest) (*AuthSession, error) {
	sreq, err := convertRequest(req)
	if err != nil {
		return nil, err
	}
	sn, err := s.svc.OpenSession(ctx, sreq)
	if err != nil {
		return nil, wrapSessionErr(err)
	}
	return &AuthSession{sn: sn}, nil
}

// wrapSessionErr applies the package's error-wrapping convention: typed
// sentinels and context errors pass through unwrapped (callers match them
// directly), everything else gets the package prefix.
func wrapSessionErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, ErrClosed),
		errors.Is(err, ErrOverloaded),
		errors.Is(err, ErrInternal),
		errors.Is(err, ErrStreamDecided),
		errors.Is(err, ErrFeedOverflow),
		errors.Is(err, ErrNeedMoreAudio),
		errors.Is(err, ErrSessionReaped),
		errors.Is(err, ErrInsufficientAudio),
		errors.Is(err, ErrFrameCorrupt),
		errors.Is(err, ErrFrameRange):
		return err
	}
	return fmt.Errorf("piano: %w", err)
}

// Recording returns the role's complete simulated microphone recording —
// the source the caller feeds chunks from (a real deployment would feed
// live capture instead). Callers must not mutate it.
func (a *AuthSession) Recording(role Role) []int16 { return a.sn.Recording(role) }

// EarlyFeedLen returns the role's decision horizon in samples: once every
// role has been fed at least this much, the session decides without the
// rest of its recording. Feeding less may already suffice; feeding the
// full recording always does.
func (a *AuthSession) EarlyFeedLen(role Role) int { return a.sn.EarlyFeedLen(role) }

// Fed returns how many samples of the role's recording have arrived.
func (a *AuthSession) Fed(role Role) int { return a.sn.Fed(role) }

// Feed ingests the next chunk of the role's audio, in order after
// everything fed so far, and advances its detection incrementally. Typed
// failures: ErrFeedOverflow (chunk rejected whole, session open),
// ErrStreamDecided (decision already made), ErrInternal (the session died
// to a recovered panic and released its slot), or the session context's
// error once canceled. A role may mix Feed and FeedFrame: both go through
// the role's one reassembler, Feed placing its chunk at the frontier.
func (a *AuthSession) Feed(role Role, pcm []int16) error {
	return wrapSessionErr(a.sn.Feed(role, pcm))
}

// FeedFrame ingests one framed chunk of the role's audio from a lossy
// transport: frames may arrive out of order, duplicated, overlapping, or
// corrupted, and the session reassembles them — bounded by the service's
// ReorderWindow — into the same scan path Feed uses, so a framed session
// on a clean transport decides bit-identically to Feed and to batch.
// Typed failures leaving the session open: ErrFrameCorrupt (resend it),
// ErrFrameRange. Gaps unrepaired past the reorder window (or
// GapRepairTimeout) are declared lost: their windows are excluded from
// scoring, and a session losing more than the detect ceiling — or audio
// the decision would have to trust — resolves ErrInsufficientAudio.
func (a *AuthSession) FeedFrame(role Role, f Frame) error {
	return wrapSessionErr(a.sn.FeedFrame(role, f))
}

// FinishFeed declares the role's transport finished: outstanding gaps and
// the unreceived tail are declared lost, so Result will either decide from
// the surviving audio or report ErrInsufficientAudio rather than wait
// forever. Works for any role, however it was fed. Idempotent.
func (a *AuthSession) FinishFeed(role Role) error {
	return wrapSessionErr(a.sn.FinishFeed(role))
}

// FrameStats returns the role's ingestion counters, Feed chunks included
// (zero for a role never fed).
func (a *AuthSession) FrameStats(role Role) FrameStats { return a.sn.FrameStats(role) }

// TryResult attempts the decision over the audio fed so far: need > 0
// means the session is healthy but some role requires at least that many
// more samples; need == 0 with a nil error is the final decision (cached —
// later calls keep returning it).
func (a *AuthSession) TryResult() (*Decision, int, error) {
	res, need, err := a.sn.TryResult()
	if err != nil {
		return nil, 0, wrapSessionErr(err)
	}
	if need > 0 {
		return nil, need, nil
	}
	return toDecision(res), 0, nil
}

// Result is TryResult for callers done feeding: an undecided session
// reports ErrNeedMoreAudio instead of a need count.
func (a *AuthSession) Result() (*Decision, error) {
	res, err := a.sn.Result()
	if err != nil {
		return nil, wrapSessionErr(err)
	}
	return toDecision(res), nil
}

// Close abandons an undecided session and releases its service slot;
// after a decision it is a no-op. Idempotent.
func (a *AuthSession) Close() { a.sn.Close() }
