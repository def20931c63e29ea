package dsp

// HopGrid is the chunk-arrival companion to SlidingBandDFT: the fixed
// arithmetic window grid of one scan pass — windows start at
// Lo, Lo+Step, …, Lo+(Count−1)·Step, each WinLen samples long — together
// with the resync-block structure the scan engine claims work on (Block
// windows per block, dsp.StreamResyncHops for streaming scans). As PCM is
// appended chunk by chunk, the grid reports how many leading windows are
// fully contained in the audio received so far, so an incremental scan can
// advance exactly to the frontier — on the same grid, in the same order,
// as a scan of the complete recording — and no further.
//
// HopGrid is pure arithmetic over a value receiver: it holds no state and
// is trivially safe to share.
type HopGrid struct {
	// Lo is the first window's start sample.
	Lo int
	// Step is the hop between consecutive window starts.
	Step int
	// WinLen is each window's length in samples.
	WinLen int
	// Count is the total number of windows in the grid.
	Count int
	// Block is the resync-block size in windows (StreamResyncHops for
	// streaming scans); block b covers windows [b·Block, (b+1)·Block).
	Block int
}

// WindowStart returns window w's start sample.
func (g HopGrid) WindowStart(w int) int { return g.Lo + w*g.Step }

// NeedFor returns how many samples of recording must exist before window w
// is complete: its start plus the full window length.
func (g HopGrid) NeedFor(w int) int { return g.WindowStart(w) + g.WinLen }

// CompleteWindows returns how many leading windows of the grid are fully
// contained in the first fed samples of the recording: the largest c ≤
// Count such that every window w < c satisfies NeedFor(w) ≤ fed. This is
// the scan frontier an incremental engine may score after an append.
func (g HopGrid) CompleteWindows(fed int) int {
	if fed < g.NeedFor(0) {
		return 0
	}
	c := (fed-g.Lo-g.WinLen)/g.Step + 1
	if c > g.Count {
		c = g.Count
	}
	return c
}

// WindowsOverlapping returns the index range [w0, w1) of grid windows
// whose sample span [WindowStart(w), WindowStart(w)+WinLen) intersects the
// half-open sample range [lo, hi) — the windows a lost transport span
// taints. The range is clamped to [0, Count]; an empty intersection
// returns w0 == w1. This is the gap-accounting primitive of the lossy
// ingestion layer: exclusion is decided per fixed grid window, so it is a
// pure function of the lost span, independent of chunking or scan order.
func (g HopGrid) WindowsOverlapping(lo, hi int) (w0, w1 int) {
	if hi <= lo {
		return 0, 0
	}
	// First window with start+WinLen > lo, i.e. start > lo-WinLen.
	if v := lo - g.WinLen - g.Lo; v >= 0 {
		w0 = v/g.Step + 1
	}
	// First window with start ≥ hi bounds the overlap from above.
	if v := hi - g.Lo; v > 0 {
		w1 = (v + g.Step - 1) / g.Step
	}
	if w1 > g.Count {
		w1 = g.Count
	}
	if w0 > w1 {
		w0 = w1
	}
	return w0, w1
}
