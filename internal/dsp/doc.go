// Package dsp provides the digital-signal-processing primitives PIANO's
// distance-estimation protocol is built on: planned real-input FFTs, power
// spectra (full, band-restricted, and streaming), window functions,
// sinusoid synthesis, cross-correlation, Goertzel single-bin evaluation,
// and the sparse composite FIR kernels the acoustic renderer convolves
// with. The package is deliberately dependency-free (stdlib only) because
// the simulated IoT devices run the exact same code an embedded port would.
//
// Key types: FFTPlan precomputes twiddle/bit-reversal tables for one window
// length and transforms real input with zero allocations into caller
// scratch (PowerSpectrumInto, and PowerSpectrumBandInto which unpacks only
// the candidate band; the *PCM variants ingest raw int16 with the exact
// widening conversion fused into the pack stage); PlanSet pins one plan
// per window length for lock-free hot-path lookup; SlidingBandDFT advances
// band spectra incrementally per hop with periodic full-FFT resync, used
// below the measured StreamingWins break-even, feeding on float64 or raw
// PCM with a mutable hop size (SetStep); BandScorer picks Goertzel vs FFT
// by the measured crossover; SparseFIR folds many fractional-delay taps
// (FIRTap) into a few dense coefficient segments using the canonical
// Hann-windowed sinc kernel (SincDelayKernel — the single source of truth
// shared with audio's per-tap mixer); HopGrid is the stateless chunk
// arithmetic behind online ingestion — which coarse windows and
// resync-aligned blocks a streamed prefix of samples completes, so a
// chunked feed scans exactly the grid a batch scan would.
//
// Invariants: *Into methods write into caller-owned scratch and allocate
// nothing on the hot path; plan methods are safe for concurrent use but
// workspaces are not (one per goroutine); the naive reference
// implementations (DFTNaive, CrossCorrelateNaive) live in the package
// tests as oracles for every optimized path, agreeing to floating-point
// rounding rather than bit-exactly.
package dsp
