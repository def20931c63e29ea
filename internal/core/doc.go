// Package core implements the paper's two contributions: the ACTION
// acoustic distance-estimation protocol (Steps I–VI of §IV) and the PIANO
// proximity-based authenticator built on top of it.
//
// Key entry points: RunACTION executes one complete distance estimation —
// signal construction (sigref), descriptor exchange over the secure channel
// (bluetooth), scene render (world), two-signal detection on each device
// (detect), and the clock-offset-free Eq. 3 distance. RunACTIONWith is the
// same session with service-owned machinery injected via SessionDeps (a
// shared detect.Detector whose Config must equal the session's — a mismatch
// is rejected rather than silently diverging). Authenticator wraps the
// protocol in the paper's Algorithm 1 decision rule with the τ threshold;
// ExtraPlay injects interferers and attackers into the scene.
//
// Step IV of the frequency-detection pipeline is one SessionStream, a
// detect.Stream per device, whichever way the audio comes: RunACTIONWith
// opens it with each device's whole rendered recording already fed
// (borrowed, not copied) and decides through one TryResult, while
// OpenACTIONStream runs Steps I–III eagerly and then consumes each role's
// PCM in chunks (SessionStream.Feed), with TryResult finalizing Steps V–VI
// once every role has fed past its early horizon — the sample index by
// which all scheduled playbacks plus worst-case propagation have provably
// passed, which is what makes the early decision bit-identical to the
// batch RunACTIONWith result. AuthStream wraps it in the Authenticator
// decision rule. Only the ACTION-CC baseline scans outside the stream.
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
