// Package sigref implements Step I of the ACTION protocol: construction of
// frequency-domain randomized reference signals.
//
// A reference Signal is a sum of n sinusoids (1 ≤ n < N) whose frequencies
// are drawn uniformly at random without replacement from N candidate
// frequencies — the centers of N equal bins spanning [25 kHz, 35 kHz] in
// the paper's configuration. Each sinusoid has amplitude FullScale/n so the
// sum never clips the 16-bit PCM range, giving per-frequency reference
// power R_f = (FullScale/n)² under the dsp.FFTPlan.PowerSpectrumInto
// normalization.
//
// Invariants: signals marshal to a compact binary descriptor (the bytes
// shipped over the secure channel in Step II) and unmarshal to a
// bit-identical waveform; Samples returns the signal's own backing slice,
// which downstream code schedules by reference and never mutates — the
// slice-ownership contract audited in PR 2.
package sigref
