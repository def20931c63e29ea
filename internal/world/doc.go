// Package world renders the shared acoustic scene: every scheduled speaker
// playback propagates through the channel model to every microphone, then
// each device's recording is quantized to the int16 PCM its detector sees.
// This is the simulation substitute for the paper's physical testbed.
//
// Key types: Config holds scene-wide parameters (rate, duration,
// environment, channel constants); World is one scene — build it, add
// devices, SchedulePlay, Render, discard. Render runs in two phases: a
// sequential draw phase consumes the scene RNG in the historical order
// (channel paths, ambient noise), then the mixing phase runs each device on
// a bounded worker pool, folding every path's taps into one composite
// sparse FIR (acoustic.Path.CompositeKernel) applied by a single
// audio.MixSparseFIR convolution per play. The historical per-tap loop
// (RenderNaive) lives in the package tests as the parity oracle and A/B
// baseline; it is not part of the package API.
//
// Invariants: a World belongs to one session, and a seeded scene renders
// bit-identically at any GOMAXPROCS (the draw phase is serialized under the
// scene lock; mixing touches no shared state). SchedulePlay aliases the
// caller's samples — the world reads but never writes them, and the caller
// must not mutate them until after Render. Rendering allocates a constant
// number of times per path regardless of tap count (the zero-alloc contract
// pinned by TestRenderNoPerTapAllocations). The composite fold changes
// floating-point summation order relative to the per-tap loop; goldens
// under testdata/ re-baseline via `go test ./internal/world/ -run
// TestRenderGolden -update` (procedure documented in golden_test.go).
package world
