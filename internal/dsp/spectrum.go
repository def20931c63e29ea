package dsp

// BinIndex returns the power-spectrum bin index the paper's Algorithm 2
// (line 4) uses for frequency f: ⌊f/fs · N⌋ where N is the window length.
func BinIndex(freqHz, sampleRate float64, windowLen int) int {
	return int(freqHz / sampleRate * float64(windowLen))
}

// BandPower sums spectrum power over bins [center−theta, center+theta],
// clamped to the valid range. This implements the θ-wide aggregation of
// Algorithm 2 (line 5) that absorbs the frequency-smoothing effect.
func BandPower(spectrum []float64, center, theta int) float64 {
	lo := center - theta
	if lo < 0 {
		lo = 0
	}
	hi := center + theta
	if hi > len(spectrum)-1 {
		hi = len(spectrum) - 1
	}
	var sum float64
	for k := lo; k <= hi; k++ {
		sum += spectrum[k]
	}
	return sum
}

// TotalPower returns the mean squared sample value of w (time-domain signal
// power), used for calibration and diagnostics.
func TotalPower(w []float64) float64 {
	if len(w) == 0 {
		return 0
	}
	var sum float64
	for _, v := range w {
		sum += v * v
	}
	return sum / float64(len(w))
}
