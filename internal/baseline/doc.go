// Package baseline implements the comparison protocols of Fig. 2(b):
// ACTION-CC — ACTION with the frequency-based detector replaced by
// cross-correlation (run as core.Config.Mode = core.DetectCrossCorrelation)
// — and Echo-Secure, the Echo
// distance-bounding protocol hardened with randomized reference signals and
// the frequency-based detector. Echo-Secure remains inaccurate because it
// is one-way: the unpredictable audio processing delay enters the estimate
// directly and can only be subtracted as a calibrated average.
//
// These baselines exist to reproduce the paper's comparative claims; they
// share the same world/acoustic/detect machinery as PIANO proper so the
// comparison isolates the protocol difference, not implementation quality.
package baseline
