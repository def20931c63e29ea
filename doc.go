// Package piano is a faithful reimplementation of PIANO — the
// proximity-based user authentication method for voice-powered IoT devices
// from Gong et al., ICDCS 2017 — together with a complete simulation of the
// physical substrate the paper's prototype ran on (speakers, microphones,
// acoustic propagation, ambient noise, Bluetooth).
//
// A user carries a vouching device (say, a smartwatch); an authenticating
// device (say, a smart speaker or phone) grants access iff the acoustic
// distance between the two — measured by the ACTION protocol with
// randomized, spoofing-resistant reference signals — is within a
// user-chosen threshold.
//
// Quick start:
//
//	dep, err := piano.NewDeployment(piano.DefaultConfig(),
//	    piano.DeviceSpec{Name: "speaker", X: 0, Y: 0},
//	    piano.DeviceSpec{Name: "watch", X: 0.8, Y: 0})
//	...
//	dec, err := dep.Authenticate()
//	if dec.Granted { ... }
//
// # Serving many users
//
// A Deployment is one pairing running one session at a time. Always-on
// hubs that authenticate many users concurrently use a Service instead: a
// long-lived server that accepts concurrent Authenticate calls and runs
// every session's signal detection through one shared detector with FFT
// plans pinned per window length. Detection runs the band-limited
// scan engine — per-window spectra are computed only over the candidate
// band Algorithm 2 reads, streamed incrementally between windows when the
// scan step is below the measured sliding-DFT break-even — and the service
// prewarms each worker's scan scratch at construction, so steady-state
// traffic allocates nothing on the scan path. Each session keeps its own
// seeded RNG stream, so its decision is bit-identical to running the same
// request through a Deployment — at any concurrency level.
//
//	svc, err := piano.NewService(piano.DefaultServiceConfig())
//	...
//	defer svc.Close()
//	dec, err := svc.Authenticate(piano.AuthRequest{
//	    Auth:  piano.DeviceSpec{Name: "hub", X: 0, Y: 0},
//	    Vouch: piano.DeviceSpec{Name: "watch", X: 0.8, Y: 0},
//	    Seed:  42,
//	})
//
// # Deciding while the audio arrives
//
// Authenticate scans a complete recording after the fact. The streaming
// session decides while the audio is still arriving: OpenSession runs the
// protocol's setup steps, then each role's PCM is fed in chunks of any
// size — a live microphone callback shape — and TryResult returns the
// decision as soon as both devices have heard everything that can matter
// (typically well before the recording ends), bit-identical to the batch
// decision for the same request no matter how the audio was chunked:
//
//	sess, err := svc.OpenSession(req)
//	...
//	for !decided {
//	    sess.Feed(piano.RoleAuth, nextChunkA)
//	    sess.Feed(piano.RoleVouch, nextChunkV)
//	    dec, need, err := sess.TryResult()
//	    decided = err == nil && need == 0
//	}
//
// ARCHITECTURE.md's "The online session" section explains the early
// horizon; cmd/piano-serve's -stream flag demonstrates it live.
//
// # Living with real clients
//
// Real clients misbehave: they vanish mid-feed without closing their
// session, and they arrive during overload spikes. ServiceConfig's
// SessionIdleTimeout and SessionMaxLifetime arm a lifecycle watchdog that
// resolves abandoned streaming sessions with typed errors
// (ErrSessionStalled / ErrSessionExpired, both matching ErrSessionReaped)
// and reclaims their slots; AuthenticateWithRetry applies a RetryPolicy —
// capped exponential backoff with deterministic seeded jitter — that
// retries only ErrOverloaded, the one failure that heals by waiting.
// ARCHITECTURE.md's "Session lifecycle" diagram shows every resolution
// path; cmd/piano-serve's -abandon-rate flag demonstrates reaping live.
//
// # Under the hood
//
// Each session renders a seeded acoustic scene (internal/world) through the
// physical channel model (internal/acoustic) — every impulse-response path
// folded into one composite sparse FIR and convolved once per play — then
// locates both randomized reference signals (internal/sigref) in each
// device's recording with the paper's frequency-domain detector
// (internal/detect) built on zero-alloc planned FFTs (internal/dsp), and
// finally applies the clock-offset-free Eq. 3 distance and the τ-threshold
// decision (internal/core). ARCHITECTURE.md traces one authentication
// through every layer and states the repo-wide determinism contract;
// PERFORMANCE.md records how each engine earned its place.
package piano
