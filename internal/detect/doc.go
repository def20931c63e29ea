// Package detect implements the paper's signal-detection algorithms:
// Algorithm 2, the sanity-checked spectral matcher that scores
// how well a window of recorded audio matches a reference signal's power
// spectrum — with the α (attenuation floor), β (foreign-frequency ceiling),
// and θ (frequency-smoothing aggregation width) parameters — and
// Algorithm 1, the sliding-window search for a reference signal's location
// with the prototype's adaptive two-stage step (coarse 1000, fine 10), the
// simultaneous two-signal single-scan optimization, and the ε·R_S
// absent-signal check. It also provides the cross-correlation detector used
// by the ACTION-CC baseline of Fig. 2(b).
//
// Key types: Config carries the algorithm parameters plus the candidate
// band (derived by CandidateBand or pinned via CandidateBandLo/Hi, both
// validated); Detector owns pooled per-worker scan workspaces, and each
// scan fans out over up to GOMAXPROCS−1 transient helper goroutines that
// exit with the scan. Scans compute per-window spectra
// only over the candidate band and switch to the streaming sliding-DFT
// engine below the measured dsp.StreamingWins break-even — the default
// fine step does, so the fine scan streams its hops and then re-scores
// every window within a drift margin of the streamed maximum with an exact
// band-restricted FFT, reporting locations and powers from exact scores
// only (bit-identical to an all-exact fine scan by construction).
//
// Stream is the one Algorithm-1 engine. Detector.NewStream declares a
// recording's length up front (bounded by MaxStreamLength; over-feeding is
// rejected whole with ErrFeedOverflow), scores coarse blocks as chunked
// PCM completes them on a grid fixed by that length, and Results — the
// package's only coarse-argmax/fine-scan/ε reduction — reports either the
// per-signal results or how many more samples it needs. Batch detection is
// the same stream fed once: Detector.FedStream borrows a complete int16
// recording (no copy; the widening conversion is fused into the spectral
// engine, bit-identically) and DetectAll a complete float64 one, both
// scanning the whole grid at once and reducing with the same Results. The
// two signals of a session share every coarse-window spectrum (the
// prototype's single-scan optimization).
//
// Invariants: scans are bit-deterministic at any GOMAXPROCS —
// streaming-scan workers claim contiguous hop blocks aligned to the resync
// grid, and window scores (and the fine scan's exact re-checks) reduce in
// window order regardless of which worker computed them. Scan workspaces
// are recycled across sessions and allocate nothing in steady state
// (Prewarm builds them up front); a truncated recording errors instead of
// panicking.
package detect
