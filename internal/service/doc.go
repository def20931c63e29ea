// Package service turns the per-call PIANO session machinery into a
// long-lived, concurrency-safe authentication service — the batched
// multi-session server the always-on voice-powered hub deployment needs.
//
// One AuthService owns, for its whole lifetime, one shared
// detect.Detector whose pooled FFT workspaces and score buffers are
// recycled across sessions. Each session's Step-IV scan fans out over
// transient helper goroutines (up to GOMAXPROCS−1) that exit when the scan
// ends, so the service runs no long-lived scan workers. Construction
// prewarms Workers+1 scan workspaces, so steady-state traffic allocates
// nothing on the scan path and resolves no FFT plan.
//
// Invariants: each AuthenticateContext call is one complete PIANO session with a
// session-private seeded RNG stream; because every random draw a session
// makes comes from its own stream, and window scores reduce in window order
// regardless of which goroutines computed them, a session's result is
// bit-identical to running the same request through the serial
// piano.Deployment path — at any concurrency level (race-tested).
//
// Failure semantics (PR 6 hardening; see ARCHITECTURE.md "Failure
// semantics"): admission is deadline-aware — past MaxSessions a request
// waits at most MaxQueueWait in a queue at most MaxQueueDepth deep and
// sheds with ErrOverloaded beyond either bound; Close stops admission,
// sheds queued waiters with ErrClosed, drains admitted sessions, and
// leaves no service goroutine running (TestServiceCloseLeavesNoGoroutines).
// Cancellation is cooperative (between protocol steps and scan hop blocks)
// and surfaces as the caller's bare ctx.Err(). A panic anywhere in a
// session's pipeline is recovered into ErrInternal (the *InternalError
// carries the stack), the poisoned scan workspace is discarded and
// re-prewarmed, and the service keeps serving. None of this perturbs the
// bit-identity contract: a session that completes is byte-for-byte the
// serial result. internal/faultinject provides the chaos hooks the tests
// (and piano-serve -chaos) use to prove all of the above under -race.
//
// Streaming sessions (PR 7): OpenSession admits a session, runs Steps
// I–III eagerly, and returns a Session that consumes per-role PCM in
// chunks (Feed) and decides at the early horizon (TryResult/Result) —
// bit-identical to AuthenticateContext on the same request for any
// chunking. A streaming session holds its admission slot from open to
// resolution; resolution is exactly-once and first-writer-wins across
// decision, Close, context cancellation, service Close (ErrClosed), and
// recovered panics (ErrInternal). Feed-protocol sentinels
// (ErrNeedMoreAudio, ErrFeedOverflow, ErrStreamDecided) report misuse
// without resolving the session.
//
// One session lifecycle: AuthenticateContext is a Session born fed (each
// role's scan borrows its whole recording) that the service resolves
// itself, so it is never registered for the watchdog or Close to reap.
// New rejects a non-frequency Core.Mode (ErrConfig): it cannot stream.
//
// One ingestion path: every byte of session audio enters through the
// role's frame.Reassembler. Feed places a chunk at the role's delivery
// frontier (no CRC; an in-order chunk is delivered as-is, without a copy),
// FeedFrame verifies a frame's CRC and places it at its own offset, and
// FinishFeed flushes the role. A role may mix Feed and FeedFrame freely.
// The deliveries reach the scan through one locked helper, which also
// resets the idle clock when fresh samples landed — so empty, duplicate
// and refused payloads never keep a session alive.
//
// Session lifecycle (PR 8): a client that vanishes mid-feed without
// closing would leak its slot forever, so Config.SessionIdleTimeout and
// Config.SessionMaxLifetime (both 0 = legacy unbounded) arm a per-service
// lifecycle watchdog that resolves stalled sessions (no successful Feed
// within the idle bound) to ErrSessionStalled and over-age sessions to
// ErrSessionExpired — both through the same first-writer-wins path, both
// matching the ErrSessionReaped category. Time inside an in-flight
// Feed/TryResult does not count as idle (a long scan is work, not a
// stall) and refused, empty or duplicate chunks do not reset the idle
// clock. The watchdog's gap expiry skips a role whose ingest lock is held
// (it is being fed) rather than wait behind its scan. New rejects
// negative durations with ErrConfig. The slot-leak storm test proves
// every MaxSessions slot is recoverable after a storm of abandoned
// sessions, and the watchdog chaos tests race sweeps against Close under
// fault injection (the service.watchdog site).
//
// One detection engine: every session scans through the same detector;
// the service never replicates it. Replicated per-worker-group
// engines measured no faster than one on 2 vCPUs (PERFORMANCE.md, "one
// detection engine per service").
// New rejects negative Workers, MaxSessions and MaxQueueDepth with
// ErrConfig instead of reading them as defaults or "unbounded".
// TestServiceSeedSweepAcrossGOMAXPROCS pins serial, concurrent and
// streamed sessions bit-identical across GOMAXPROCS 1/2/4/8 under -race.
package service
