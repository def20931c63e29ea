// Package core implements the paper's two contributions: the ACTION
// acoustic distance-estimation protocol (Steps I–VI of §IV) and the PIANO
// proximity-based authenticator built on top of it.
//
// Key entry points: an Authenticator is one registered pairing. Its
// Authenticate runs one complete session — signal construction (sigref),
// descriptor exchange over the secure channel (bluetooth), scene render
// (world), two-signal detection on each device (detect), the
// clock-offset-free Eq. 3 distance — and applies the paper's Algorithm 1
// decision rule with the τ threshold; Measure runs the same session
// without the access decision. UseDetector injects service-owned Step-IV
// machinery (a shared detect.Detector whose Config must equal the
// session's — a mismatch is rejected rather than silently diverging);
// ExtraPlay injects interferers and attackers into the scene.
//
// Every frequency-mode session is one AuthStream, a detect.Stream per
// device, whichever way the audio comes. Authenticate and Measure open it
// born fed with each device's whole rendered recording (borrowed, not
// copied) and decide through one TryResult; OpenStreamContext runs Steps
// I–III eagerly and then consumes each role's PCM in chunks (Feed), with
// TryResult finalizing Steps V–VI once every role has fed past its early
// horizon — the sample index by which all scheduled playbacks plus
// worst-case propagation have provably passed, which is what makes the
// early decision bit-identical to the batch one. TryResult runs Steps
// V–VI, energy accounting and the τ decision exactly once per session.
// Only the ACTION-CC baseline scans outside the stream.
//
// Invariants: a session's rng must be private to it — every draw happens in
// a fixed sequential order, which is what makes a seeded session
// reproducible and concurrent service sessions bit-identical to serial
// runs. ExtraPlay.Samples are scheduled by reference and never written;
// callers must not mutate them while a session is in flight. Each scan
// reduces in window order, so the session result does not depend on
// scheduling. A Step-V report whose rate is not a finite positive number
// ends the session with ErrBadReport, never a decision.
package core
