// Package audio provides the PCM sample handling shared by the simulated
// devices and the acoustic channel: 16-bit buffers with saturating
// quantization (matching Android's 16-bit audio path the paper's prototype
// uses) and band-limited fractional-delay mixing.
//
// Key operations: Buffer pairs int16 samples with a sample rate;
// FromFloat/Float convert to and from the float64 domain the world mixes in
// (accumulate in float64, quantize once — intermediate mixing never clips).
// MixFloatSincGain adds a source into an accumulator at a fractional offset
// through the 48-tap Hann-windowed sinc kernel defined once in
// dsp.SincDelayKernel; MixSparseFIR applies a whole composite kernel
// (dsp.SparseFIR, all taps of one propagation path folded together) in a
// single convolution — the renderer's one-convolution-per-play fast path.
//
// Invariants: both mixers are allocation-free and bit-deterministic (edge
// samples take a bounds-checked path whose per-sample accumulation order
// matches the unchecked interior); SincMixCalls/SparseFIRMixCalls are
// cheap atomic call counters (one add per mix call, never per sample) that
// op-count tests use to prove the renderer performs exactly one convolution
// per play per path.
package audio
