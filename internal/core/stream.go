package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/detect"
	"github.com/acoustic-auth/piano/internal/device"
	"github.com/acoustic-auth/piano/internal/sigref"
)

// Role names one of the two protocol participants in a streaming session:
// each role feeds its own microphone's PCM independently.
type Role int

// The two ACTION participants.
const (
	// RoleAuth is the authenticating device (detects S_A then S_V in its
	// own recording).
	RoleAuth Role = iota
	// RoleVouch is the vouching device.
	RoleVouch
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleAuth:
		return "auth"
	case RoleVouch:
		return "vouch"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

func (r Role) valid() bool { return r == RoleAuth || r == RoleVouch }

// ErrStreamDecided is returned by Feed once a streaming session has reached
// its decision: the session finalization (Step V's Bluetooth exchange draws
// from the session RNG) runs exactly once, so audio arriving after it can
// never alter the result and is rejected instead of silently dropped.
var ErrStreamDecided = errors.New("core: streaming session already decided")

// earlySlack pads the per-role decision horizon by a few samples against
// clock-skew rounding at the horizon boundary (one sliding-DFT resync block
// is far more than enough).
const earlySlack = 64

// AuthStream is one PIANO authentication: Steps I–III run up front
// (prepareACTION), Step IV is one detect.Stream per device, and the
// decision applies the authentication phase's rules — the Bluetooth
// reachability pre-check at open, then Steps V–VI, energy accounting and
// the τ threshold through the same decide step as every batch session.
// A live session (OpenStreamContext) consumes each device's PCM in chunks
// as the audio "arrives" and can decide as soon as both recordings have
// revealed their signals — before either recording is complete. A batch
// session (OpenFedStreamContext, Authenticate, Measure) is the same
// stream born fed: each device's stream borrows its whole recording and
// TryResult decides immediately.
//
// Determinism contract: feeding each role its complete recording — in
// chunks of any size, including all at once — and calling TryResult yields
// a decision bit-identical to AuthenticateContext over the same inputs, at
// any GOMAXPROCS. Deciding at the EarlyFeedLen horizon yields that same
// decision whenever the tail of each recording contains no window that
// both passes the α/β sanity checks and beats the scanned maximum —
// guaranteed for protocol-compliant schedules, where the horizon covers
// every sample the batch fine scan can touch (see earlyFeedLen).
//
// An AuthStream serializes its own decision; the two roles may be fed
// from separate goroutines.
type AuthStream struct {
	p *sessionPrep // nil when pre-decided (Bluetooth out of range)

	streams [2]*detect.Stream
	rec     [2][]int16
	early   [2]int

	mu   sync.Mutex
	done bool
	res  *Result
	err  error
}

// OpenStreamContext opens a streaming authentication session. Steps I–III
// run now; audio is then fed per role with Feed, and TryResult yields the
// decision as soon as both recordings have revealed their signals. The ctx
// cancels cooperatively exactly as in AuthenticateContext. Only the
// frequency-detection pipeline streams; the ACTION-CC baseline is
// batch-only. When the vouching device is out of Bluetooth range the
// stream is born decided: TryResult immediately returns the denial, and
// Feed reports ErrStreamDecided.
func (a *Authenticator) OpenStreamContext(ctx context.Context, extras ...ExtraPlay) (*AuthStream, error) {
	return a.openStream(ctx, false, extras)
}

// OpenFedStreamContext is OpenStreamContext born fed: each role's stream
// borrows its whole rendered recording (no copy) and is scanned before the
// call returns, so TryResult decides at once, bit-identically to
// AuthenticateContext. Scan errors (ctx's, a worker panic) surface here.
func (a *Authenticator) OpenFedStreamContext(ctx context.Context, extras ...ExtraPlay) (*AuthStream, error) {
	return a.openStream(ctx, true, extras)
}

func (a *Authenticator) openStream(ctx context.Context, fed bool, extras []ExtraPlay) (*AuthStream, error) {
	if !a.linkAuth.InRange() {
		return &AuthStream{
			done: true,
			res:  &Result{Granted: false, Reason: ReasonBluetoothOutOfRange},
		}, nil
	}
	if a.cfg.Mode != DetectFrequency {
		return nil, errors.New("core: streaming sessions require the frequency-detection mode")
	}
	p, err := a.prepareACTION(ctx, extras)
	if err != nil {
		return nil, err
	}
	return newAuthStream(p, fed)
}

// newAuthStream opens one Step-IV stream per device over p's rendered
// recordings: empty, to be fed as the audio arrives, or — when fed is set —
// already holding each whole recording (borrowed, not copied) with its
// coarse grid scanned, so TryResult decides at once.
func newAuthStream(p *sessionPrep, fed bool) (*AuthStream, error) {
	as := &AuthStream{p: p}
	devs := [2]*device.Device{p.a.auth, p.a.vouch}
	sigs := [2][2]*sigref.Signal{{p.sigA, p.sigV}, {p.vouchSigA, p.vouchSigV}}
	for r, dev := range devs {
		pcm := p.recs[dev].Samples
		var st *detect.Stream
		var err error
		if fed {
			st, err = p.det.FedStream(p.ctx, pcm, sigs[r][0], sigs[r][1])
		} else {
			st, err = p.det.NewStream(len(pcm), sigs[r][0], sigs[r][1])
		}
		if err != nil {
			return nil, fmt.Errorf("core: streaming detect (%s role): %w", Role(r), err)
		}
		as.streams[r] = st
		as.rec[r] = pcm
		as.early[r] = p.earlyFeedLen(dev, len(pcm))
	}
	return as, nil
}

// earlyFeedLen computes one role's decision horizon: the sample index in
// that device's recording past which the schedule guarantees no reference
// signal energy remains, plus everything the batch fine scan can touch
// beyond a coarse argmax there (± CoarseStep, one window length), plus a
// small resync slack. The last acoustic arrival ends by
// max(playA, playV) + signal duration + the maximum propagation delay
// inside Bluetooth range (prepareACTION rejects schedules that overrun the
// recording), so every coarse window the batch argmax can select starts at
// or before that instant on the device's own skewed clock.
func (p *sessionPrep) earlyFeedLen(dev *device.Device, total int) int {
	cfg := p.a.cfg
	maxProp := cfg.BTRangeM / acoustic.SpeedOfSoundMPS
	lastGlobal := math.Max(p.playA, p.playV) + p.sigDur + maxProp
	idxEnd := int(math.Ceil(dev.Clock().SampleAt(lastGlobal)))
	early := idxEnd + cfg.Detect.CoarseStep + cfg.Signal.Length + earlySlack
	if early > total {
		early = total
	}
	if early < cfg.Signal.Length {
		early = cfg.Signal.Length
	}
	return early
}

// Recording returns the role's complete rendered recording — the simulated
// microphone the caller feeds chunks from (nil when the stream was
// pre-decided without running ACTION). The slice is the session's own;
// callers must not mutate it.
func (as *AuthStream) Recording(role Role) []int16 {
	if as.p == nil || !role.valid() {
		return nil
	}
	return as.rec[role]
}

// EarlyFeedLen returns the role's decision horizon in samples (0 when
// pre-decided): once at least this much of each role's recording has been
// fed, TryResult decides without waiting for the rest (and equals the
// batch decision for compliant schedules). Feeding less MAY already
// suffice; feeding the full recording always does.
func (as *AuthStream) EarlyFeedLen(role Role) int {
	if as.p == nil || !role.valid() {
		return 0
	}
	return as.early[role]
}

// Fed returns how many samples of the role's recording have arrived.
func (as *AuthStream) Fed(role Role) int {
	if as.p == nil || !role.valid() {
		return 0
	}
	return as.streams[role].Fed()
}

// Feed appends a chunk of the role's recording and advances that role's
// coarse scan over exactly the windows the chunk completed. After the
// session has decided (or on a pre-decided stream), Feed reports
// ErrStreamDecided. An over-length chunk is rejected whole with
// detect.ErrFeedOverflow (match with errors.Is), leaving the stream
// usable. Scan errors (the session context's cancellation, a recovered
// worker panic) leave the audio ingested with the scan resumable.
func (as *AuthStream) Feed(role Role, pcm []int16) error {
	st, err := as.live(role)
	if err != nil {
		return err
	}
	return st.Feed(as.p.ctx, pcm)
}

// FeedLost declares the role's next n samples lost to the transport: the
// reassembly layer gave up repairing a gap. The span is zero-filled and
// every coarse window overlapping it is deterministically excluded from
// the role's scoring; when cumulative loss crosses the detect config's
// MaxLossFraction ceiling the error (detect.ErrInsufficientAudio, match
// with errors.Is) is sticky and the session can no longer decide.
func (as *AuthStream) FeedLost(role Role, n int) error {
	st, err := as.live(role)
	if err != nil {
		return err
	}
	return st.FeedLost(as.p.ctx, n)
}

// live returns the role's Step-IV stream while the session still accepts
// audio.
func (as *AuthStream) live(role Role) (*detect.Stream, error) {
	if as.p == nil {
		return nil, ErrStreamDecided
	}
	if !role.valid() {
		return nil, fmt.Errorf("core: unknown stream role %d", int(role))
	}
	as.mu.Lock()
	done := as.done
	as.mu.Unlock()
	if done {
		return nil, ErrStreamDecided
	}
	return as.streams[role], nil
}

// TryResult attempts the authentication decision over the audio fed so
// far.
//
// A role is ready once it has been fed to its EarlyFeedLen horizon (the
// point past which the schedule guarantees no signal energy remains — a
// full feed always qualifies) and every candidate's fine band has arrived.
// When both roles are ready, TryResult runs the fine scans, Steps V–VI,
// energy accounting and the τ decision exactly once, caches the decision,
// and returns it with need 0 — every later call returns the cached
// decision (or the cached Steps V–VI error). Otherwise it returns a nil
// result and the largest number of additional samples some role still
// needs (need > 0, nil error). Gating the decision on the horizon — not
// merely on the scan engine having enough audio for a local answer — is
// what makes the early decision equal to the batch oracle rather than a
// guess from a prefix. Errors from the scan engine (cancellation, worker
// panics as *detect.PanicError, detect.ErrInsufficientAudio) are returned
// without deciding; the session remains resumable.
func (as *AuthStream) TryResult() (*Result, int, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	if as.done {
		return as.res, 0, as.err
	}
	var roleRes [2][]detect.Result
	need := 0
	for r, st := range as.streams {
		res, n, err := st.Results(as.p.ctx)
		if err != nil {
			return nil, 0, fmt.Errorf("core: streaming detect (%s role): %w", Role(r), err)
		}
		if hn := as.early[r] - st.Fed(); hn > n {
			n = hn
		}
		if n > need {
			need = n
		}
		roleRes[r] = res
	}
	if need > 0 {
		return nil, need, nil
	}
	// Finalize exactly once: Step V draws the report latency from the
	// session RNG, so re-running it would fork the deterministic stream.
	as.done = true
	sr, err := as.p.finishACTION(roleRes[RoleAuth], roleRes[RoleVouch])
	if err != nil {
		as.err = err
		return nil, 0, err
	}
	// A decision that survived transport loss carries its degraded-mode
	// accounting; a clean session's report stays nil, keeping the
	// zero-loss result bit-identical to the batch pipeline's.
	var d Degraded
	for _, st := range as.streams {
		s, w := st.Loss()
		d.LostSamples += s
		d.LostWindows += w
	}
	if d.LostSamples > 0 {
		sr.Degraded = &d
	}
	as.res = as.p.a.decide(sr)
	return as.res, 0, nil
}
