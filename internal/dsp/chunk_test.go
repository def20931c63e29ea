package dsp

import "testing"

// bruteCompleteWindows is the obvious O(Count) oracle for CompleteWindows.
func bruteCompleteWindows(g HopGrid, fed int) int {
	c := 0
	for w := 0; w < g.Count; w++ {
		if g.NeedFor(w) > fed {
			break
		}
		c++
	}
	return c
}

func TestHopGridCompleteWindowsMatchesBruteForce(t *testing.T) {
	grids := []HopGrid{
		{Lo: 0, Step: 1000, WinLen: 4096, Count: 49, Block: 4},    // paper coarse grid
		{Lo: 3000, Step: 10, WinLen: 4096, Count: 201, Block: 64}, // fine grid
		{Lo: 0, Step: 1, WinLen: 7, Count: 13, Block: 5},          // dense tiny
		{Lo: 5, Step: 3, WinLen: 4, Count: 6, Block: 64},          // offset, short
	}
	for gi, g := range grids {
		last := g.NeedFor(g.Count-1) + 3
		for fed := 0; fed <= last; fed++ {
			want := bruteCompleteWindows(g, fed)
			if got := g.CompleteWindows(fed); got != want {
				t.Fatalf("grid %d fed=%d: CompleteWindows=%d want %d", gi, fed, got, want)
			}
		}
	}
}

func TestHopGridCompleteWindowsMonotoneAndSaturating(t *testing.T) {
	g := HopGrid{Lo: 0, Step: 1000, WinLen: 4096, Count: 49, Block: StreamResyncHops}
	prev := 0
	for fed := 0; fed <= g.NeedFor(g.Count-1)+5000; fed += 97 {
		c := g.CompleteWindows(fed)
		if c < prev {
			t.Fatalf("fed=%d: frontier went backwards %d -> %d", fed, prev, c)
		}
		if c > g.Count {
			t.Fatalf("fed=%d: frontier %d exceeds Count %d", fed, c, g.Count)
		}
		prev = c
	}
	if prev != g.Count {
		t.Fatalf("frontier saturated at %d, want %d", prev, g.Count)
	}
}

// TestHopGridWindowsOverlapping checks the lost-span→window mapping
// against a brute-force sweep over every window, across several grid
// shapes and span positions (block edges, 1-sample spans, empty spans).
func TestHopGridWindowsOverlapping(t *testing.T) {
	grids := []HopGrid{
		{Lo: 0, Step: 1000, WinLen: 4410, Count: 49, Block: 64},
		{Lo: 0, Step: 10, WinLen: 100, Count: 130, Block: 64},
		{Lo: 7, Step: 3, WinLen: 5, Count: 40, Block: 4},
	}
	for gi, g := range grids {
		spans := [][2]int{
			{0, 1},
			{g.WindowStart(3), g.WindowStart(3) + 1},            // window-start edge
			{g.NeedFor(3) - 1, g.NeedFor(3)},                    // last sample of a window
			{g.NeedFor(3), g.NeedFor(3) + 1},                    // just past a window
			{g.WindowStart(5), g.NeedFor(7)},                    // exact multi-window span
			{g.NeedFor(g.Count - 1), g.NeedFor(g.Count-1) + 50}, // past the grid
			{-20, 1},
			{15, 15},                        // empty
			{0, g.NeedFor(g.Count-1) + 100}, // everything
		}
		for _, sp := range spans {
			lo, hi := sp[0], sp[1]
			w0, w1 := g.WindowsOverlapping(lo, hi)
			for w := 0; w < g.Count; w++ {
				start := g.WindowStart(w)
				want := hi > lo && start < hi && start+g.WinLen > lo
				got := w >= w0 && w < w1
				if got != want {
					t.Fatalf("grid %d span [%d,%d): window %d in [%d,%d)=%v, brute force %v",
						gi, lo, hi, w, w0, w1, got, want)
				}
			}
			if w0 < 0 || w1 > g.Count || w0 > w1 {
				t.Fatalf("grid %d span [%d,%d): malformed range [%d,%d)", gi, lo, hi, w0, w1)
			}
		}
	}
}
