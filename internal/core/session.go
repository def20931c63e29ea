package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/audio"
	"github.com/acoustic-auth/piano/internal/detect"
	"github.com/acoustic-auth/piano/internal/device"
	"github.com/acoustic-auth/piano/internal/sigref"
	"github.com/acoustic-auth/piano/internal/world"
)

// ExtraPlay injects an additional acoustic emission into a session's scene:
// other PIANO users (Fig. 2a), spoofing attackers (§VI-E), or any ambient
// source. The playing device must be distinct from the protocol devices.
type ExtraPlay struct {
	// Device is the emitting device (position/room already set).
	Device *device.Device
	// Samples is the waveform on the int16 amplitude scale.
	//
	// Ownership: the session schedules this slice by reference (see
	// world.SchedulePlay) — it is read, never written, but the caller must
	// not mutate it until the session that consumed the play returns.
	// Callers that reuse a scratch waveform buffer across sessions must
	// pass a private copy per session. Sharing one (immutable) slice
	// across several ExtraPlays is fine.
	Samples []float64
	// AtSec schedules the emission at a global time; ignored if Random.
	AtSec float64
	// Random schedules the emission uniformly over the recording span.
	Random bool
}

// Degraded reports the transport loss a streaming decision survived: the
// session decided from the audio that arrived, with the lost spans'
// windows excluded from scoring and the exact-at-peak candidate bands
// verified intact. Populated only on decisions made over a lossy feed —
// clean sessions (and the batch pipeline) carry a nil report.
type Degraded struct {
	// LostSamples counts samples declared lost across both roles' feeds.
	LostSamples int
	// LostWindows counts the coarse grid windows those spans excluded
	// from scoring, across both roles.
	LostWindows int
}

// SessionResult captures one full run of ACTION.
type SessionResult struct {
	// DistanceM is the Eq. 3 estimate; valid only when Found.
	DistanceM float64
	// Found is false when any of the four detections returned ⊥.
	Found bool
	// AbsentDetail names the detection that came back ⊥ (diagnostics).
	AbsentDetail string

	// Raw detected locations (sample indices in each device's recording).
	LocAA, LocAV, LocVA, LocVV int

	// AuthTimeSec is the modeled wall-clock duration of the whole
	// authentication on the prototype handset.
	AuthTimeSec float64
	// BTSeconds is the modeled total Bluetooth exchange time.
	BTSeconds float64
	// DetectSeconds is the modeled detection CPU time on the
	// authenticating device.
	DetectSeconds float64
	// RecordSeconds is the microphone capture duration.
	RecordSeconds float64
	// PlaySeconds is the speaker playback duration on the authenticating
	// device.
	PlaySeconds float64
	// WindowsScanned counts Algorithm-2 window scores on the authenticating
	// device (shared coarse scan counted once).
	WindowsScanned int

	// Degraded is the lossy-transport accounting of a streaming decision
	// that survived loss; nil for clean feeds and batch sessions.
	Degraded *Degraded
}

// sameIndexSet reports whether two sorted index slices are identical.
func sameIndexSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ctxErr reports a done context without blocking; a nil ctx (the
// uncancellable session form) never errs.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// ErrBadReport is returned (wrapped, match with errors.Is) when the
// vouching device's Step-V report is malformed or carries a sampling rate
// that is not a finite positive number. The session ends with this error
// instead of a decision: a NaN or infinite rate would make the Eq. 3
// distance NaN, which no threshold comparison can deny.
var ErrBadReport = errors.New("core: invalid location-difference report")

// locDiffMsg is the Step V payload: the vouching device's local location
// difference l_VV − l_VA plus its nominal sampling rate.
type locDiffMsg struct {
	diff int64
	rate float64
}

func encodeLocDiff(m locDiffMsg) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(m.diff))
	binary.LittleEndian.PutUint64(buf[8:16], math.Float64bits(m.rate))
	return buf
}

func decodeLocDiff(data []byte) (locDiffMsg, error) {
	if len(data) != 16 {
		return locDiffMsg{}, fmt.Errorf("%w: payload is %d bytes, want 16", ErrBadReport, len(data))
	}
	m := locDiffMsg{
		diff: int64(binary.LittleEndian.Uint64(data[0:8])),
		rate: math.Float64frombits(binary.LittleEndian.Uint64(data[8:16])),
	}
	if math.IsNaN(m.rate) || math.IsInf(m.rate, 0) || m.rate <= 0 {
		return locDiffMsg{}, fmt.Errorf("%w: sampling rate %g", ErrBadReport, m.rate)
	}
	return m, nil
}

// sessionPrep carries a session from the end of Step III (scene rendered,
// recordings in hand) to Steps IV–VI. Splitting the pipeline here is what
// lets one AuthStream serve both a batch session (each device's stream fed
// its whole recording at once) and a live one (fed as the audio arrives)
// over identical state: both share prepareACTION, the Step-IV stream, and
// finishACTION verbatim, so every RNG draw and every arithmetic step is
// common by construction.
type sessionPrep struct {
	a *Authenticator
	// ctx, when non-nil, cancels the session cooperatively: it is checked
	// between protocol steps and threaded into the Step-IV scans, which
	// observe it between hop blocks. Sessions that complete are
	// bit-identical to uncancellable runs (checkpoints never reorder or
	// change any computation).
	ctx context.Context

	// The authenticating device's constructed signals and the vouching
	// device's decoded copies (Step II ships descriptors, not samples).
	sigA, sigV           *sigref.Signal
	vouchSigA, vouchSigV *sigref.Signal

	// recs are the rendered per-device recordings.
	recs map[*device.Device]*audio.Buffer
	det  *detect.Detector

	// Timeline (global seconds): latencies, play commands, recording end.
	lat1, lat2   float64
	playA, playV float64
	sigDur       float64
	recEnd       float64
}

// prepareACTION runs Steps I–III: signal construction, the descriptor
// exchange, the session timeline, and the rendered acoustic scene. It
// consumes RNG draws in the exact order the historical monolithic pipeline
// did (signal draws, link latencies, processing delays, world/channel
// draws, extra-play schedules), which is what keeps batch and streamed
// sessions bit-identical to each other and to earlier releases.
func (a *Authenticator) prepareACTION(ctx context.Context, extras []ExtraPlay) (*sessionPrep, error) {
	cfg, rng := a.cfg, a.rng
	auth, vouch := a.auth, a.vouch
	linkAuth, linkVouch := a.linkAuth, a.linkVouch
	if a.det != nil && a.det.Config() != cfg.Detect {
		return nil, errors.New("core: injected detector parameters differ from session config")
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// --- Step I: the authenticating device constructs S_A and S_V. ---
	sigA, err := sigref.New(cfg.Signal, rng)
	if err != nil {
		return nil, fmt.Errorf("core: construct S_A: %w", err)
	}
	// S_V must not share S_A's exact frequency set: identical sets make
	// each device detect its own play as both signals (both location
	// differences collapse to zero ⇒ distance 0 ⇒ grant with the user
	// absent). The α/β checks already reject strict sub/supersets, so
	// redrawing on exact equality closes the only dangerous collision.
	var sigV *sigref.Signal
	for tries := 0; ; tries++ {
		sigV, err = sigref.New(cfg.Signal, rng)
		if err != nil {
			return nil, fmt.Errorf("core: construct S_V: %w", err)
		}
		if !sameIndexSet(sigA.Indices(), sigV.Indices()) {
			break
		}
		if tries > 64 {
			return nil, errors.New("core: could not draw distinct reference signals")
		}
	}

	// --- Step II: ship both descriptors over the secure channel. ---
	descA, err := sigA.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: marshal S_A: %w", err)
	}
	descV, err := sigV.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: marshal S_V: %w", err)
	}
	lat1, err := linkAuth.Send(descA, rng)
	if err != nil {
		return nil, fmt.Errorf("core: step II: %w", err)
	}
	lat2, err := linkAuth.Send(descV, rng)
	if err != nil {
		return nil, fmt.Errorf("core: step II: %w", err)
	}
	gotA, err := linkVouch.Recv()
	if err != nil {
		return nil, fmt.Errorf("core: step II recv: %w", err)
	}
	gotB, err := linkVouch.Recv()
	if err != nil {
		return nil, fmt.Errorf("core: step II recv: %w", err)
	}
	vouchSigA, err := sigref.UnmarshalSignal(gotA)
	if err != nil {
		return nil, fmt.Errorf("core: step II decode: %w", err)
	}
	vouchSigV, err := sigref.UnmarshalSignal(gotB)
	if err != nil {
		return nil, fmt.Errorf("core: step II decode: %w", err)
	}

	// --- Timeline. Global t=0 is when the authenticating device starts
	// the session. Recording origins become each device's private clock
	// offset, so Eq. 3's clock-independence is genuinely exercised. ---
	recStartA := cfg.SigConstructSec
	recStartV := recStartA + lat1 + lat2
	if err := auth.ResetClock(recStartA); err != nil {
		return nil, err
	}
	if err := vouch.ResetClock(recStartV); err != nil {
		return nil, err
	}

	cmdA := recStartV + cfg.LeadSec
	playA := cmdA + auth.ProcDelay().Sample(rng)
	cmdV := cmdA + cfg.GapSec
	playV := cmdV + vouch.ProcDelay().Sample(rng)

	sigDur := cfg.Signal.DurationSec()
	recEnd := math.Min(recStartA, recStartV) + cfg.World.DurationSec
	maxProp := cfg.BTRangeM / acoustic.SpeedOfSoundMPS
	if playV+sigDur+maxProp+0.02 > recEnd {
		return nil, fmt.Errorf("core: recording window %.2fs too short for schedule ending %.2fs",
			cfg.World.DurationSec, playV+sigDur+maxProp+0.02)
	}

	// --- Step III: build the scene and play. ---
	// Cancellation checkpoint before the render — the most expensive
	// non-detection phase; an abandoned caller stops here instead of
	// rendering a scene nobody will scan.
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	w, err := world.New(cfg.World, rng)
	if err != nil {
		return nil, err
	}
	if err := w.AddDevice(auth); err != nil {
		return nil, err
	}
	if err := w.AddDevice(vouch); err != nil {
		return nil, err
	}
	added := make(map[*device.Device]bool, len(extras))
	for _, ex := range extras {
		if ex.Device == nil {
			return nil, errors.New("core: extra play with nil device")
		}
		if ex.Device == auth || ex.Device == vouch {
			return nil, errors.New("core: extra play must use a third device")
		}
		if added[ex.Device] {
			continue // one device may emit several plays
		}
		if err := w.AddDevice(ex.Device); err != nil {
			return nil, err
		}
		added[ex.Device] = true
	}
	if err := w.SchedulePlay(auth, sigA.Samples(), playA); err != nil {
		return nil, err
	}
	if err := w.SchedulePlay(vouch, vouchSigV.Samples(), playV); err != nil {
		return nil, err
	}
	for _, ex := range extras {
		at := ex.AtSec
		if ex.Random {
			span := recEnd - recStartV - sigDur
			if span < 0 {
				span = 0
			}
			at = recStartV + rng.Float64()*span
		}
		if err := w.SchedulePlay(ex.Device, ex.Samples, at); err != nil {
			return nil, err
		}
	}
	recs, err := w.Render()
	if err != nil {
		return nil, err
	}

	det := a.det
	if det == nil {
		det, err = detect.New(cfg.Detect)
		if err != nil {
			return nil, err
		}
	}
	return &sessionPrep{
		a: a, ctx: ctx,
		sigA: sigA, sigV: sigV,
		vouchSigA: vouchSigA, vouchSigV: vouchSigV,
		recs: recs, det: det,
		lat1: lat1, lat2: lat2,
		playA: playA, playV: playV,
		sigDur: sigDur, recEnd: recEnd,
	}, nil
}

// detectCrossCorrelation is Step IV of the ACTION-CC baseline: each device
// locates both signals in its complete recording by normalized
// cross-correlation against the original waveform.
func (p *sessionPrep) detectCrossCorrelation() (resAuth, resVouch []detect.Result, err error) {
	if err := ctxErr(p.ctx); err != nil {
		return nil, nil, err
	}
	ccDetect := func(rec []float64, sigs ...*sigref.Signal) ([]detect.Result, error) {
		out := make([]detect.Result, 0, len(sigs))
		for _, s := range sigs {
			r, err := p.det.DetectCrossCorrelation(rec, s)
			if err != nil {
				return nil, fmt.Errorf("core: cross-correlation detect: %w", err)
			}
			out = append(out, r)
		}
		return out, nil
	}
	if resAuth, err = ccDetect(p.recs[p.a.auth].Float(), p.sigA, p.sigV); err != nil {
		return nil, nil, err
	}
	if resVouch, err = ccDetect(p.recs[p.a.vouch].Float(), p.vouchSigA, p.vouchSigV); err != nil {
		return nil, nil, err
	}
	return resAuth, resVouch, nil
}

// finishACTION runs Steps V–VI over the four detection results: the
// vouching device's location-difference report (one Bluetooth exchange,
// the session's final RNG draw) and the Eq. 3 distance estimate with its
// plausibility gate. It must run exactly once per session — the Step-V
// latency draw advances the session RNG stream.
func (p *sessionPrep) finishACTION(resAuth, resVouch []detect.Result) (*SessionResult, error) {
	cfg, rng := p.a.cfg, p.a.rng
	auth, vouch := p.a.auth, p.a.vouch
	linkAuth, linkVouch := p.a.linkAuth, p.a.linkVouch

	res := &SessionResult{}
	res.WindowsScanned = resAuth[0].WindowsScanned + resAuth[1].WindowsScanned - resAuth[0].CoarseScanned
	res.RecordSeconds = cfg.World.DurationSec
	res.PlaySeconds = p.sigDur
	res.DetectSeconds = float64(res.WindowsScanned) * cfg.PhoneFFTSec

	// --- Step V: vouching device reports its local difference. ---
	// (The message is sent regardless; on ⊥ it reports failure upstream —
	// we model that as the same exchange.)
	latBack, err := linkVouch.Send(encodeLocDiff(locDiffMsg{
		diff: int64(resVouch[1].Location - resVouch[0].Location),
		rate: vouch.SampleRate(),
	}), rng)
	if err != nil {
		return nil, fmt.Errorf("core: step V: %w", err)
	}
	back, err := linkAuth.Recv()
	if err != nil {
		return nil, fmt.Errorf("core: step V recv: %w", err)
	}
	msg, err := decodeLocDiff(back)
	if err != nil {
		return nil, err
	}

	res.BTSeconds = p.lat1 + p.lat2 + latBack
	res.AuthTimeSec = cfg.SigConstructSec + res.BTSeconds + (p.recEnd - 0) + res.DetectSeconds

	// ⊥ anywhere denies the authentication (Algorithm 1 line 13).
	switch {
	case !resAuth[0].Found:
		res.AbsentDetail = "authenticating device could not locate S_A"
	case !resAuth[1].Found:
		res.AbsentDetail = "authenticating device could not locate S_V"
	case !resVouch[0].Found:
		res.AbsentDetail = "vouching device could not locate S_A"
	case !resVouch[1].Found:
		res.AbsentDetail = "vouching device could not locate S_V"
	}
	if res.AbsentDetail != "" {
		res.Found = false
		return res, nil
	}

	res.LocAA = resAuth[0].Location
	res.LocAV = resAuth[1].Location
	res.LocVA = resVouch[0].Location
	res.LocVV = resVouch[1].Location

	// --- Step VI: Eq. 3 — clock-offset-free two-way distance. ---
	res.DistanceM = 0.5 * acoustic.SpeedOfSoundMPS *
		(float64(res.LocAV-res.LocAA)/auth.SampleRate() - float64(msg.diff)/msg.rate)
	// Plausibility gate: detections displaced onto partial-overlap
	// windows produce estimates no physical geometry could (signals are
	// undetectable beyond d_s). Treat them as the signal not being
	// (correctly) present.
	if res.DistanceM < cfg.PlausibleMinM || res.DistanceM > cfg.PlausibleMaxM {
		res.AbsentDetail = fmt.Sprintf("implausible distance estimate %.2f m", res.DistanceM)
		res.DistanceM = 0
		res.Found = false
		return res, nil
	}
	res.Found = true
	return res, nil
}
