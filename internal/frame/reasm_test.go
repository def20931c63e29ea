package frame

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// testPCM builds a recording whose sample at index i is a function of i,
// so deliveries can be checked for positional integrity.
func testPCM(total int) []int16 {
	pcm := make([]int16, total)
	for i := range pcm {
		pcm[i] = int16(i*31 + 7)
	}
	return pcm
}

// addT is Add with test plumbing: failures are fatal.
func addT(t *testing.T, r *Reassembler, f Frame, now time.Time) []Delivery {
	t.Helper()
	dv, _, err := r.Add(f, now)
	if err != nil {
		t.Fatalf("Add(seq=%d off=%d): %v", f.Seq, f.Offset, err)
	}
	return dv
}

// replay verifies that a delivery sequence covers [from, to) in order and
// returns the samples delivered as data (lost spans yield no samples).
func replay(t *testing.T, dv []Delivery, at int) int {
	t.Helper()
	for _, d := range dv {
		if d.Offset != at {
			t.Fatalf("delivery at %d, frontier %d", d.Offset, at)
		}
		if d.Lost > 0 {
			at += d.Lost
			continue
		}
		at += len(d.PCM)
	}
	return at
}

// TestReassemblerInOrder: clean in-order frames deliver immediately and
// bit-exactly.
func TestReassemblerInOrder(t *testing.T) {
	pcm := testPCM(1000)
	r, err := NewReassembler(1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for off := 0; off < 1000; off += 100 {
		dv := addT(t, r, New(uint32(off/100), off, pcm[off:off+100]), time.Time{})
		if len(dv) != 1 || dv[0].Lost != 0 {
			t.Fatalf("off %d: deliveries %+v", off, dv)
		}
		for i, s := range dv[0].PCM {
			if s != pcm[at+i] {
				t.Fatalf("sample %d: %d != %d", at+i, s, pcm[at+i])
			}
		}
		at = replay(t, dv, at)
	}
	if r.Next() != 1000 || len(r.Gaps()) != 0 {
		t.Fatalf("next %d gaps %v after clean feed", r.Next(), r.Gaps())
	}
}

// TestReassemblerReorderRepair: an out-of-order frame buffers, the missing
// frame repairs the gap, and both deliver in order with no loss.
func TestReassemblerReorderRepair(t *testing.T) {
	pcm := testPCM(300)
	r, err := NewReassembler(300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dv := addT(t, r, New(1, 100, pcm[100:200]), time.Time{}); len(dv) != 0 {
		t.Fatalf("out-of-order frame delivered: %+v", dv)
	}
	if g := r.Gaps(); len(g) != 1 || g[0] != [2]int{0, 100} {
		t.Fatalf("gaps %v, want [[0 100]]", g)
	}
	dv := addT(t, r, New(0, 0, pcm[0:100]), time.Time{})
	if end := replay(t, dv, 0); end != 200 {
		t.Fatalf("repair delivered to %d, want 200", end)
	}
	for _, d := range dv {
		if d.Lost > 0 {
			t.Fatalf("repaired feed declared loss: %+v", dv)
		}
	}
}

// TestReassemblerStructuralExpiry: when buffered data runs past the
// reorder window, the oldest gap is declared lost deterministically.
func TestReassemblerStructuralExpiry(t *testing.T) {
	pcm := testPCM(2000)
	r, err := NewReassembler(2000, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Gap [0, 100), data [100, 450): data runs 450 ahead of the frontier,
	// within the 500-sample window.
	if dv := addT(t, r, New(1, 100, pcm[100:450]), time.Time{}); len(dv) != 0 {
		t.Fatalf("within-window data delivered early: %+v", dv)
	}
	// Data [450, 700): maxEnd 700 - next 0 > 500 → gap [0, 100) lost,
	// everything behind it delivered.
	dv := addT(t, r, New(2, 450, pcm[450:700]), time.Time{})
	if len(dv) < 2 || dv[0].Lost != 100 || dv[0].Offset != 0 {
		t.Fatalf("deliveries %+v, want lost [0,100) first", dv)
	}
	if end := replay(t, dv, 0); end != 700 {
		t.Fatalf("frontier %d, want 700", end)
	}
	if st := r.Stats(); st.LostSamples != 100 {
		t.Fatalf("LostSamples %d, want 100", st.LostSamples)
	}
}

// TestReassemblerWallClockExpiry: Expire converts a stale leading gap into
// a lost span once the repair deadline passes, and not before.
func TestReassemblerWallClockExpiry(t *testing.T) {
	pcm := testPCM(400)
	r, err := NewReassembler(400, 0)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(100, 0)
	addT(t, r, New(1, 100, pcm[100:200]), t0)
	if dv := r.Expire(t0.Add(50*time.Millisecond), 100*time.Millisecond); len(dv) != 0 {
		t.Fatalf("gap expired before its deadline: %+v", dv)
	}
	dv := r.Expire(t0.Add(150*time.Millisecond), 100*time.Millisecond)
	if len(dv) != 2 || dv[0].Lost != 100 || len(dv[1].PCM) != 100 {
		t.Fatalf("deliveries %+v, want lost 100 then data 100", dv)
	}
	if r.Next() != 200 {
		t.Fatalf("frontier %d, want 200", r.Next())
	}
}

// TestReassemblerSplitGapKeepsStamp: a frame landing inside a gap splits
// it; both children keep the parent's openedAt, so they expire on the
// original deadline.
func TestReassemblerSplitGapKeepsStamp(t *testing.T) {
	pcm := testPCM(600)
	r, err := NewReassembler(600, 0)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(100, 0)
	addT(t, r, New(1, 400, pcm[400:500]), t0) // gap [0, 400) opened at t0
	addT(t, r, New(2, 200, pcm[200:300]), t0.Add(90*time.Millisecond))
	if g := r.Gaps(); len(g) != 2 {
		t.Fatalf("gaps %v, want two children", g)
	}
	// At t0+100ms both children are past the ORIGINAL deadline.
	dv := r.Expire(t0.Add(100*time.Millisecond), 100*time.Millisecond)
	if end := replay(t, dv, 0); end != 500 {
		t.Fatalf("frontier %d, want 500 (both children expired)", end)
	}
}

// TestReassemblerDupAndOverlap: duplicates are silently absorbed, partial
// overlaps contribute only their fresh tail, and first arrival wins.
func TestReassemblerDupAndOverlap(t *testing.T) {
	pcm := testPCM(500)
	r, err := NewReassembler(500, 0)
	if err != nil {
		t.Fatal(err)
	}
	addT(t, r, New(0, 0, pcm[0:200]), time.Time{})
	dv, fresh, err := r.Add(New(0, 0, pcm[0:200]), time.Time{})
	if err != nil || fresh || len(dv) != 0 {
		t.Fatalf("exact dup: dv=%v fresh=%v err=%v", dv, fresh, err)
	}
	// Overlapping frame with a poisoned overlap region: first arrival must
	// win, and only the fresh tail is delivered.
	evil := append([]int16{-1, -2, -3}, pcm[153:300]...)
	dv, fresh, err = r.Add(Frame{Seq: 9, Offset: 150, CRC: checksum(9, 150, evil), PCM: evil}, time.Time{})
	if err != nil || !fresh {
		t.Fatalf("overlap: fresh=%v err=%v", fresh, err)
	}
	if end := replay(t, dv, 200); end != 300 {
		t.Fatalf("overlap delivered to %d, want 300", end)
	}
	for _, d := range dv {
		for i, s := range d.PCM {
			if s != pcm[d.Offset+i] {
				t.Fatalf("sample %d: %d != %d (first arrival must win)", d.Offset+i, s, pcm[d.Offset+i])
			}
		}
	}
	if st := r.Stats(); st.Dups != 1 {
		t.Fatalf("Dups %d, want 1", st.Dups)
	}
}

// TestReassemblerRejectsTyped: corrupt and out-of-range frames are
// rejected typed with no state change — including an offset so large that
// offset+length overflows int.
func TestReassemblerRejectsTyped(t *testing.T) {
	r, err := NewReassembler(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := New(1, 0, []int16{1, 2, 3})
	bad.CRC ^= 1
	if _, _, err := r.Add(bad, time.Time{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt frame: %v", err)
	}
	if _, _, err := r.Add(New(2, 98, []int16{1, 2, 3}), time.Time{}); !errors.Is(err, ErrRange) {
		t.Fatalf("out-of-range frame: %v", err)
	}
	if _, _, err := r.Add(New(3, -1, []int16{1}), time.Time{}); !errors.Is(err, ErrRange) {
		t.Fatalf("negative-offset frame: %v", err)
	}
	if dv, fresh, err := r.Add(New(4, math.MaxInt-5, make([]int16, 10)), time.Time{}); !errors.Is(err, ErrRange) || dv != nil || fresh {
		t.Fatalf("overflowing-offset frame: deliveries %v, fresh %v, err %v", dv, fresh, err)
	}
	if r.Next() != 0 || r.Pending() != 0 {
		t.Fatalf("rejected frames mutated state: next=%d pending=%d", r.Next(), r.Pending())
	}
	st := r.Stats()
	if st.Corrupt != 1 || st.Rejected != 3 || st.Dups != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestReassemblerFlush: Flush declares every hole and the undelivered tail
// lost, covering the full declared length exactly once.
func TestReassemblerFlush(t *testing.T) {
	pcm := testPCM(1000)
	r, err := NewReassembler(1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	addT(t, r, New(0, 0, pcm[0:100]), time.Time{})
	addT(t, r, New(2, 200, pcm[200:300]), time.Time{})
	dv := r.Flush()
	if end := replay(t, dv, 100); end != 1000 {
		t.Fatalf("flush frontier %d, want 1000", end)
	}
	if r.Next() != 1000 {
		t.Fatalf("Next %d after Flush", r.Next())
	}
	lost := 0
	for _, d := range dv {
		lost += d.Lost
	}
	if lost != 800 { // [100,200) + [300,1000)
		t.Fatalf("flush lost %d samples, want 800", lost)
	}
}

// TestReassemblerRandomizedCoverage: a randomized storm of loss,
// duplication, and reordering followed by Flush always yields a delivery
// sequence covering [0, total) exactly once, in order, with delivered
// data positionally intact.
func TestReassemblerRandomizedCoverage(t *testing.T) {
	const total = 20000
	pcm := testPCM(total)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, err := NewReassembler(total, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		// Partition into frames, then shuffle with drops and dups.
		type piece struct{ lo, hi int }
		var pieces []piece
		for at := 0; at < total; {
			n := 50 + rng.Intn(400)
			if at+n > total {
				n = total - at
			}
			pieces = append(pieces, piece{at, at + n})
			at += n
		}
		var sched []piece
		for i, p := range pieces {
			if rng.Float64() < 0.15 { // lost
				continue
			}
			sched = append(sched, p)
			if rng.Float64() < 0.1 { // duplicated
				sched = append(sched, p)
			}
			_ = i
		}
		rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
		at := 0
		for i, p := range sched {
			dv, _, err := r.Add(New(uint32(i), p.lo, pcm[p.lo:p.hi]), time.Time{})
			if err != nil {
				t.Fatalf("seed %d: add: %v", seed, err)
			}
			for _, d := range dv {
				if d.Offset != at {
					t.Fatalf("seed %d: delivery at %d, frontier %d", seed, d.Offset, at)
				}
				for k, s := range d.PCM {
					if s != pcm[d.Offset+k] {
						t.Fatalf("seed %d: sample %d corrupted", seed, d.Offset+k)
					}
				}
				at += d.Lost + len(d.PCM)
			}
		}
		for _, d := range r.Flush() {
			if d.Offset != at {
				t.Fatalf("seed %d: flush delivery at %d, frontier %d", seed, d.Offset, at)
			}
			at += d.Lost + len(d.PCM)
		}
		if at != total {
			t.Fatalf("seed %d: coverage ends at %d, want %d", seed, at, total)
		}
	}
}
