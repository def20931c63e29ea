package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/acoustic-auth/piano/internal/bluetooth"
	"github.com/acoustic-auth/piano/internal/detect"
	"github.com/acoustic-auth/piano/internal/device"
	"github.com/acoustic-auth/piano/internal/energy"
)

// Reason explains an authentication decision.
type Reason int

// Decision reasons, in the order PIANO's authentication phase checks them.
const (
	// ReasonGranted: estimated distance ≤ τ.
	ReasonGranted Reason = iota + 1
	// ReasonBluetoothOutOfRange: the vouching device is unreachable, so
	// access is denied without estimating distance (and FAR is 0).
	ReasonBluetoothOutOfRange
	// ReasonSignalAbsent: a reference signal was not present in a
	// recording (⊥) — devices too far apart, separated by a wall, or a
	// spoofing attempt tripped the sanity checks.
	ReasonSignalAbsent
	// ReasonDistanceExceedsThreshold: distance measured fine but > τ.
	ReasonDistanceExceedsThreshold
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonGranted:
		return "granted"
	case ReasonBluetoothOutOfRange:
		return "denied: vouching device out of Bluetooth range"
	case ReasonSignalAbsent:
		return "denied: reference signal not present"
	case ReasonDistanceExceedsThreshold:
		return "denied: distance exceeds threshold"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// Result is one authentication decision.
type Result struct {
	// Granted is the access decision.
	Granted bool
	// Reason explains it.
	Reason Reason
	// DistanceM is the ACTION estimate (valid when Session.Found).
	DistanceM float64
	// Session holds the protocol internals; nil when the decision was
	// made before ACTION ran (e.g. Bluetooth out of range).
	Session *SessionResult
}

// Authenticator is a registered PIANO pairing: one authenticating device
// guarded by one vouching device.
type Authenticator struct {
	cfg       Config
	auth      *device.Device
	vouch     *device.Device
	linkAuth  *bluetooth.Link
	linkVouch *bluetooth.Link
	rng       *rand.Rand
	det       *detect.Detector
	ledger    *energy.Ledger
	battery   *energy.Battery
}

// NewAuthenticator performs the registration phase (Bluetooth pairing with
// key agreement) and returns a ready authenticator.
func NewAuthenticator(cfg Config, auth, vouch *device.Device, rng *rand.Rand) (*Authenticator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if auth == nil || vouch == nil {
		return nil, errors.New("core: nil device")
	}
	if rng == nil {
		return nil, errors.New("core: nil rng")
	}
	la, lv, err := bluetooth.Pair(auth, vouch, cfg.BTLatency, cfg.BTRangeM)
	if err != nil {
		return nil, fmt.Errorf("core: registration: %w", err)
	}
	return &Authenticator{
		cfg:       cfg,
		auth:      auth,
		vouch:     vouch,
		linkAuth:  la,
		linkVouch: lv,
		rng:       rng,
	}, nil
}

// Config returns the deployment configuration.
func (a *Authenticator) Config() Config { return a.cfg }

// SetThreshold tunes τ — the personalization knob of the paper's abstract
// ("users can set the authentication threshold to be 0.5 meter if ... 1
// meter is too long to be safe").
func (a *Authenticator) SetThreshold(m float64) error {
	if m <= 0 {
		return errors.New("core: threshold must be positive")
	}
	a.cfg.ThresholdM = m
	return nil
}

// UseDetector attaches a shared Step-IV detector (typically service-owned,
// with prewarmed scratch) so this pairing's sessions stop
// building per-session detection machinery. The detector's parameters must
// equal the deployment's Detect config; sessions fail otherwise. Call
// before authenticating; a nil detector restores self-contained sessions.
func (a *Authenticator) UseDetector(det *detect.Detector) { a.det = det }

// TrackEnergy attaches an energy ledger (and optionally a battery) so
// subsequent authentications account their consumption.
func (a *Authenticator) TrackEnergy(l *energy.Ledger, b *energy.Battery) {
	a.ledger = l
	a.battery = b
}

// Measure runs ACTION once without making an access decision (the
// distance-accuracy experiments use this directly). Unlike Authenticate it
// has no Bluetooth pre-check: an unreachable vouching device fails the
// descriptor exchange with bluetooth.ErrOutOfRange.
func (a *Authenticator) Measure(extras ...ExtraPlay) (*SessionResult, error) {
	return a.MeasureContext(nil, extras...)
}

// MeasureContext is Measure with cooperative cancellation: the session
// observes ctx between protocol steps and between scan hop blocks,
// returning ctx.Err() once it is done. A nil ctx runs uncancellably.
//
// A canceled session may already have consumed draws from the session RNG,
// so abandoning a session mid-run and retrying it on the same Authenticator
// yields a fresh realization (exactly as a real retry would); sessions that
// complete are bit-identical to uncancellable runs.
func (a *Authenticator) MeasureContext(ctx context.Context, extras ...ExtraPlay) (*SessionResult, error) {
	res, err := a.run(ctx, extras)
	if err != nil {
		return nil, err
	}
	return res.Session, nil
}

// Authenticate executes the paper's authentication phase:
//  1. check the vouching device is reachable over Bluetooth — if not,
//     deny immediately;
//  2. run ACTION;
//  3. grant iff the estimated distance ≤ τ.
func (a *Authenticator) Authenticate(extras ...ExtraPlay) (*Result, error) {
	return a.AuthenticateContext(nil, extras...)
}

// AuthenticateContext is Authenticate with cooperative cancellation (see
// MeasureContext for the contract). A nil ctx runs uncancellably.
func (a *Authenticator) AuthenticateContext(ctx context.Context, extras ...ExtraPlay) (*Result, error) {
	if !a.linkAuth.InRange() {
		return &Result{Granted: false, Reason: ReasonBluetoothOutOfRange}, nil
	}
	return a.run(ctx, extras)
}

// run executes one whole ACTION session and decides it. The rng must be
// private to this pairing: every draw (signal construction, latency and
// processing-delay realizations, channel geometry, ambient noise) happens
// in a fixed sequential order, so a per-session seeded stream makes
// concurrent sessions bit-identical to serial ones. Frequency-mode Step IV
// is the streaming session born fed; only the ACTION-CC baseline scans
// outside it.
func (a *Authenticator) run(ctx context.Context, extras []ExtraPlay) (*Result, error) {
	p, err := a.prepareACTION(ctx, extras)
	if err != nil {
		return nil, err
	}
	if a.cfg.Mode == DetectCrossCorrelation {
		resAuth, resVouch, err := p.detectCrossCorrelation()
		if err != nil {
			return nil, err
		}
		sr, err := p.finishACTION(resAuth, resVouch)
		if err != nil {
			return nil, err
		}
		return a.decide(sr), nil
	}
	as, err := newAuthStream(p, true)
	if err != nil {
		return nil, err
	}
	res, need, err := as.TryResult()
	if err == nil && need > 0 {
		return nil, fmt.Errorf("core: fully fed session still needs %d samples", need)
	}
	return res, err
}

// decide books one completed ACTION run's energy and maps it onto the
// access decision: deny on ⊥, grant iff the estimated distance ≤ τ. Every
// session — batch, streamed, or ACTION-CC — ends here exactly once, so a
// streamed session's decision is byte-identical to the batch decision for
// the same SessionResult.
func (a *Authenticator) decide(sr *SessionResult) *Result {
	a.account(sr)
	if !sr.Found {
		return &Result{Granted: false, Reason: ReasonSignalAbsent, Session: sr}
	}
	if sr.DistanceM > a.cfg.ThresholdM {
		return &Result{
			Granted:   false,
			Reason:    ReasonDistanceExceedsThreshold,
			DistanceM: sr.DistanceM,
			Session:   sr,
		}
	}
	return &Result{
		Granted:   true,
		Reason:    ReasonGranted,
		DistanceM: sr.DistanceM,
		Session:   sr,
	}
}

// account books one session's energy into the attached ledger/battery.
func (a *Authenticator) account(sr *SessionResult) {
	if a.ledger == nil {
		return
	}
	a.ledger.RecordMic(sr.RecordSeconds)
	a.ledger.RecordSpeaker(sr.PlaySeconds)
	a.ledger.RecordCPU(sr.DetectSeconds + a.cfg.SigConstructSec)
	a.ledger.RecordBluetooth(sr.BTSeconds)
	a.ledger.RecordBaseline(sr.AuthTimeSec)
	if a.battery != nil {
		m := a.ledger.Model()
		j := m.MicW*sr.RecordSeconds +
			m.SpeakerW*sr.PlaySeconds +
			m.CPUW*(sr.DetectSeconds+a.cfg.SigConstructSec) +
			m.BluetoothW*sr.BTSeconds +
			m.BaselineW*sr.AuthTimeSec
		a.battery.Drain(j)
	}
}
