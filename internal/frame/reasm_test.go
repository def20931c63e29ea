package frame

import (
	"errors"
	"fmt"
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
	if r.Next() != 1000 || len(r.gaps()) != 0 {
		t.Fatalf("next %d gaps %v after clean feed", r.Next(), r.gaps())
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
	if g := r.gaps(); len(g) != 1 || g[0] != [2]int{0, 100} {
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
	if g := r.gaps(); len(g) != 2 {
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
	if r.Next() != 0 || r.pending() != 0 {
		t.Fatalf("rejected frames mutated state: next=%d pending=%d", r.Next(), r.pending())
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

// reasmOp is one step of a reassembler schedule: a frame arriving at now,
// or (expire > 0) an Expire at now, or a Flush.
type reasmOp struct {
	f      Frame
	now    time.Time
	expire time.Duration
	flush  bool
}

// sameDeliveries reports whether two delivery sequences carry the same
// offsets, lost spans, and samples.
func sameDeliveries(a, b []Delivery) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Offset != b[i].Offset || a[i].Lost != b[i].Lost || len(a[i].PCM) != len(b[i].PCM) {
			return false
		}
		for k := range a[i].PCM {
			if a[i].PCM[k] != b[i].PCM[k] {
				return false
			}
		}
	}
	return true
}

// TestReassemblerPlaceMatchesAdd: Add is Verify followed by Place at the
// frame's offset. Every reassembler case above, replayed both ways, yields
// the same deliveries, freshness, errors, frontier, gaps, and counters
// (Corrupt aside: a bare Verify counts nothing).
func TestReassemblerPlaceMatchesAdd(t *testing.T) {
	t0 := time.Unix(100, 0)
	ms := time.Millisecond
	at := func(lo, hi int, seq uint32, now time.Time) reasmOp {
		return reasmOp{f: New(seq, lo, testPCM(hi)[lo:hi]), now: now}
	}
	corrupt := New(1, 0, []int16{1, 2, 3})
	corrupt.CRC ^= 1
	evil := append([]int16{-1, -2, -3}, testPCM(300)[153:300]...)
	type reasmCase struct {
		name          string
		total, window int
		ops           []reasmOp
	}
	cases := []reasmCase{
		{"in-order", 1000, 0, func() []reasmOp {
			var ops []reasmOp
			for off := 0; off < 1000; off += 100 {
				ops = append(ops, at(off, off+100, uint32(off/100), time.Time{}))
			}
			return ops
		}()},
		{"reorder-repair", 300, 0, []reasmOp{at(100, 200, 1, t0), at(0, 100, 0, t0)}},
		{"structural-expiry", 2000, 500, []reasmOp{at(100, 450, 1, t0), at(450, 700, 2, t0)}},
		{"wall-clock-expiry", 400, 0, []reasmOp{at(100, 200, 1, t0),
			{now: t0.Add(50 * ms), expire: 100 * ms}, {now: t0.Add(150 * ms), expire: 100 * ms}}},
		{"split-gap", 600, 0, []reasmOp{at(400, 500, 1, t0), at(200, 300, 2, t0.Add(90*ms)),
			{now: t0.Add(100 * ms), expire: 100 * ms}}},
		{"dup-and-overlap", 500, 0, []reasmOp{at(0, 200, 0, t0), at(0, 200, 0, t0),
			{f: Frame{Seq: 9, Offset: 150, CRC: checksum(9, 150, evil), PCM: evil}}}},
		{"rejects", 100, 0, []reasmOp{{f: corrupt}, {f: New(2, 98, []int16{1, 2, 3})},
			{f: New(3, -1, []int16{1})}, {f: New(4, math.MaxInt-5, make([]int16, 10))}}},
		{"flush", 1000, 0, []reasmOp{at(0, 100, 0, t0), at(200, 300, 2, t0), {flush: true}}},
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ops []reasmOp
		for lo := 0; lo < 20000; {
			hi := min(lo+50+rng.Intn(400), 20000)
			if rng.Float64() >= 0.15 {
				ops = append(ops, at(lo, hi, uint32(len(ops)), t0))
			}
			lo = hi
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		ops = append(ops, reasmOp{flush: true})
		cases = append(cases, reasmCase{fmt.Sprintf("randomized-%d", seed), 20000, 1 << 10, ops})
	}

	for _, c := range cases {
		ra, err := NewReassembler(c.total, c.window)
		if err != nil {
			t.Fatal(err)
		}
		rp, _ := NewReassembler(c.total, c.window)
		for i, op := range c.ops {
			var da, dp []Delivery
			var fa, fp bool
			var ea, ep error
			switch {
			case op.flush:
				da, dp = ra.Flush(), rp.Flush()
			case op.expire > 0:
				da, dp = ra.Expire(op.now, op.expire), rp.Expire(op.now, op.expire)
			default:
				da, fa, ea = ra.Add(op.f, op.now)
				if ep = op.f.Verify(); ep == nil {
					dp, fp, ep = rp.Place(op.f.Offset, op.f.PCM, op.now)
				}
			}
			if !sameDeliveries(da, dp) || fa != fp || fmt.Sprint(ea) != fmt.Sprint(ep) {
				t.Fatalf("%s op %d: Add → %+v %v %v; Verify+Place → %+v %v %v", c.name, i, da, fa, ea, dp, fp, ep)
			}
			sa, sp := ra.Stats(), rp.Stats()
			sa.Corrupt, sp.Corrupt = 0, 0
			if ra.Next() != rp.Next() || ra.pending() != rp.pending() ||
				fmt.Sprint(ra.gaps()) != fmt.Sprint(rp.gaps()) || sa != sp {
				t.Fatalf("%s op %d: state diverged: next %d/%d pending %d/%d gaps %v/%v stats %+v/%+v", c.name, i,
					ra.Next(), rp.Next(), ra.pending(), rp.pending(), ra.gaps(), rp.gaps(), sa, sp)
			}
		}
	}
}

// TestReassemblerInOrderPlaceNoBuffer: payloads placed at the frontier
// while nothing is buffered are delivered as-is — the reorder buffer is
// never allocated and, once the delivery scratch is warm, nothing is.
func TestReassemblerInOrderPlaceNoBuffer(t *testing.T) {
	const chunk, runs = 100, 1000
	pcm := testPCM(chunk * (runs + 2))
	r, err := NewReassembler(len(pcm), 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		at := r.Next()
		dv, fresh, err := r.Place(at, pcm[at:at+chunk], time.Time{})
		if err != nil || !fresh || len(dv) != 1 || dv[0].Offset != at || &dv[0].PCM[0] != &pcm[at] {
			t.Fatalf("in-order place at %d: dv=%+v fresh=%v err=%v", at, dv, fresh, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("in-order Place allocates %.1f times per call, want 0", allocs)
	}
	if r.buf != nil {
		t.Fatal("in-order Place allocated the reorder buffer")
	}
	if st := r.Stats(); st.Frames != runs+1 || r.Next() != chunk*(runs+1) {
		t.Fatalf("stats %+v next %d after %d in-order chunks", st, r.Next(), runs+1)
	}
}

// TestReassemblerLazyBuffer: the first payload landing ahead of the
// frontier allocates the reorder buffer, and from there the reassembler
// buffers, repairs, and delivers exactly as a frame-only feed does.
func TestReassemblerLazyBuffer(t *testing.T) {
	pcm := testPCM(1000)
	r, err := NewReassembler(1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Place(0, pcm[0:100], time.Time{}); err != nil {
		t.Fatal(err)
	}
	if r.buf != nil {
		t.Fatal("in-order prefix allocated the reorder buffer")
	}
	if dv, fresh, err := r.Place(300, pcm[300:400], time.Time{}); err != nil || !fresh || len(dv) != 0 {
		t.Fatalf("ahead-of-frontier payload: dv=%+v fresh=%v err=%v", dv, fresh, err)
	}
	if len(r.buf) != 1000 {
		t.Fatalf("reorder buffer holds %d samples, want 1000", len(r.buf))
	}
	if g := r.gaps(); len(g) != 1 || g[0] != [2]int{100, 300} {
		t.Fatalf("gaps %v, want [[100 300]]", g)
	}
	// An in-order payload with data buffered takes the buffered path and
	// unlocks the run behind it.
	dv, _, err := r.Place(r.Next(), pcm[100:300], time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	at := 100
	for _, d := range dv {
		if d.Offset != at || d.Lost != 0 {
			t.Fatalf("deliveries %+v, want data from %d", dv, at)
		}
		for i, s := range d.PCM {
			if s != pcm[at+i] {
				t.Fatalf("sample %d: %d != %d", at+i, s, pcm[at+i])
			}
		}
		at += len(d.PCM)
	}
	if at != 400 || r.Next() != 400 || r.pending() != 0 {
		t.Fatalf("repair delivered to %d, next %d pending %d; want 400, 400, 0", at, r.Next(), r.pending())
	}
}

// pending returns how many samples are buffered beyond the frontier.
func (r *Reassembler) pending() int {
	n := 0
	for _, sp := range r.spans {
		n += sp.hi - sp.lo
	}
	return n
}

// gaps returns the open (still repairable) holes before buffered data as
// [lo, hi) sample ranges, ascending.
func (r *Reassembler) gaps() [][2]int {
	out := make([][2]int, len(r.holes))
	for i, h := range r.holes {
		out[i] = [2]int{h.lo, h.hi}
	}
	return out
}
