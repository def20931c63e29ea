package frame

import (
	"fmt"
	"sort"
	"time"
)

// DefaultWindow is the default reorder-window bound in samples (~0.74 s at
// 44.1 kHz): how far ahead of the in-order delivery frontier a reassembler
// buffers before it stops waiting for a retransmission and declares the
// oldest gap lost.
const DefaultWindow = 1 << 15

// Delivery is one in-order step of the reassembled feed: either a
// contiguous run of PCM or an explicit lost span the downstream scan must
// account for. Deliveries from one Reassembler cover the recording's
// prefix [0, Next()) exactly once, in order, with no overlaps.
type Delivery struct {
	// Offset is the delivery's first sample index in the recording.
	Offset int
	// PCM is the delivered run (nil for a lost span). It aliases the
	// reassembler's buffer; consume it before the next Add call.
	PCM []int16
	// Lost is the span length declared lost (0 for a data run).
	Lost int
}

// Stats counts a reassembler's frame dispositions (diagnostics).
type Stats struct {
	// Frames counts frames accepted with at least one fresh sample.
	Frames int
	// Dups counts frames carrying only already-covered samples.
	Dups int
	// Corrupt counts frames rejected for a CRC mismatch.
	Corrupt int
	// Rejected counts frames rejected for an out-of-range payload.
	Rejected int
	// LostSamples counts samples declared lost so far.
	LostSamples int
}

// span is a half-open covered sample range [lo, hi).
type span struct{ lo, hi int }

// hole is a half-open missing sample range [lo, hi) — a gap awaiting
// repair — stamped with when the reassembler first observed it, so a
// wall-clock repair deadline can expire it.
type hole struct {
	lo, hi   int
	openedAt time.Time
}

// Reassembler converts an out-of-order, lossy frame arrival sequence into
// the in-order delivery sequence the contiguous scan path consumes. Frames
// land at their Offset; runs contiguous with the delivery frontier are
// delivered immediately; everything else is buffered. A gap (a hole before
// buffered data) stays repairable by a retransmitted frame until either
// (a) the buffered data runs more than the reorder window ahead of the
// frontier — the structural bound, a pure function of the frame sequence,
// which is what keeps loss handling bit-deterministic — or (b) a caller-
// driven wall-clock deadline expires it (Expire), or (c) the feed is
// declared over (Flush). An expired gap becomes an explicit lost-span
// delivery, never silently skipped audio.
//
// A Reassembler is not safe for concurrent use; callers serialize access
// (the session layer holds one per role under a per-role lock).
type Reassembler struct {
	total  int
	window int
	buf    []int16
	next   int // delivery frontier: [0, next) fully delivered
	maxEnd int // highest sample covered by any accepted frame
	spans  []span
	holes  []hole // holes between next and the spans, ascending
	stats  Stats
}

// NewReassembler builds a reassembler for a recording declared total
// samples long, with the given reorder-window bound in samples (0 →
// DefaultWindow).
func NewReassembler(total, window int) (*Reassembler, error) {
	if total < 1 {
		return nil, fmt.Errorf("frame: declared recording length %d must be ≥ 1", total)
	}
	if window == 0 {
		window = DefaultWindow
	}
	if window < 1 {
		return nil, fmt.Errorf("frame: reorder window %d must be ≥ 1 (0 for the default)", window)
	}
	return &Reassembler{total: total, window: window, buf: make([]int16, total)}, nil
}

// Next returns the delivery frontier: every sample below it has been
// delivered, as data or as part of a lost span.
func (r *Reassembler) Next() int { return r.next }

// Pending returns how many samples are buffered beyond the frontier.
func (r *Reassembler) Pending() int {
	n := 0
	for _, sp := range r.spans {
		n += sp.hi - sp.lo
	}
	return n
}

// Gaps returns the open (still repairable) holes before buffered data as
// [lo, hi) sample ranges, ascending.
func (r *Reassembler) Gaps() [][2]int {
	out := make([][2]int, len(r.holes))
	for i, h := range r.holes {
		out[i] = [2]int{h.lo, h.hi}
	}
	return out
}

// Stats returns the frame-disposition counters so far.
func (r *Reassembler) Stats() Stats { return r.stats }

// Add ingests one frame at time now and returns the in-order deliveries it
// unlocked (often none — the frame may only fill buffer). The frame's CRC
// is verified first: a corrupt frame returns ErrCorrupt with no state
// change, an out-of-range payload ErrRange likewise. fresh reports whether
// the frame contributed at least one not-yet-covered sample (the session
// layer's definition of client progress). Duplicate and already-delivered
// payloads are accepted silently (retransmissions crossing a repair are
// normal); overlapping payloads keep the first-arrived samples.
func (r *Reassembler) Add(f Frame, now time.Time) (dv []Delivery, fresh bool, err error) {
	if err := f.Verify(); err != nil {
		r.stats.Corrupt++
		return nil, false, err
	}
	// Compared without forming Offset+len, which overflows for an offset
	// near math.MaxInt and would pass the frame on as a duplicate.
	if f.Offset < 0 || f.Offset > r.total-len(f.PCM) {
		r.stats.Rejected++
		return nil, false, fmt.Errorf("%w: %d samples at offset %d against declared length %d",
			ErrRange, len(f.PCM), f.Offset, r.total)
	}
	lo, hi := f.Offset, f.Offset+len(f.PCM)
	if lo < r.next {
		lo = r.next
	}
	if lo >= hi {
		r.stats.Dups++
		return nil, false, nil
	}
	fresh = r.insert(lo, hi, f.PCM[lo-f.Offset:])
	if !fresh {
		r.stats.Dups++
		return nil, false, nil
	}
	r.stats.Frames++
	if hi > r.maxEnd {
		r.maxEnd = hi
	}
	r.rebuildHoles(now)
	dv = r.pop(nil)
	// Structural expiry: buffered data may run at most window samples
	// ahead of the frontier. Past that, the oldest gap will not be waited
	// on any longer — it is declared lost, which unlocks the data behind
	// it, until the bound holds again.
	for r.maxEnd-r.next > r.window && len(r.holes) > 0 {
		dv = r.loseFront(dv)
		dv = r.pop(dv)
	}
	return dv, true, nil
}

// insert copies the not-yet-covered samples of data (covering [lo, hi))
// into the buffer and merges the range into the span set, reporting
// whether any sample was fresh. First arrival wins on overlaps.
func (r *Reassembler) insert(lo, hi int, data []int16) bool {
	fresh := false
	i := sort.Search(len(r.spans), func(i int) bool { return r.spans[i].hi >= lo })
	cur := lo
	for j := i; j < len(r.spans) && r.spans[j].lo <= hi; j++ {
		if cur < r.spans[j].lo {
			copy(r.buf[cur:r.spans[j].lo], data[cur-lo:])
			fresh = true
		}
		if r.spans[j].hi > cur {
			cur = r.spans[j].hi
		}
	}
	if cur < hi {
		copy(r.buf[cur:hi], data[cur-lo:])
		fresh = true
	}
	if !fresh {
		return false
	}
	// Merge [lo, hi) with every span it touches (adjacency counts).
	j := i
	mlo, mhi := lo, hi
	for j < len(r.spans) && r.spans[j].lo <= hi {
		if r.spans[j].lo < mlo {
			mlo = r.spans[j].lo
		}
		if r.spans[j].hi > mhi {
			mhi = r.spans[j].hi
		}
		j++
	}
	merged := append(r.spans[:i:i], span{mlo, mhi})
	r.spans = append(merged, r.spans[j:]...)
	return true
}

// rebuildHoles recomputes the hole list from (next, spans), carrying each
// surviving hole's openedAt stamp: a hole overlapping an old hole keeps
// the old (earliest) stamp — those samples have been missing since then —
// and a genuinely new hole is stamped now.
func (r *Reassembler) rebuildHoles(now time.Time) {
	old := r.holes
	fresh := r.holes[:0:0]
	cur := r.next
	for _, sp := range r.spans {
		if sp.lo > cur {
			h := hole{lo: cur, hi: sp.lo, openedAt: now}
			for _, o := range old {
				if o.lo < h.hi && o.hi > h.lo && o.openedAt.Before(h.openedAt) {
					h.openedAt = o.openedAt
				}
			}
			fresh = append(fresh, h)
		}
		cur = sp.hi
	}
	r.holes = fresh
}

// pop appends deliveries for the contiguous data at the frontier.
func (r *Reassembler) pop(dv []Delivery) []Delivery {
	for len(r.spans) > 0 && r.spans[0].lo == r.next {
		hi := r.spans[0].hi
		dv = append(dv, Delivery{Offset: r.next, PCM: r.buf[r.next:hi:hi]})
		r.next = hi
		r.spans = r.spans[1:]
	}
	return dv
}

// loseFront declares the front hole lost and appends its delivery. The
// front hole always starts at the frontier (pop ran first).
func (r *Reassembler) loseFront(dv []Delivery) []Delivery {
	h := r.holes[0]
	dv = append(dv, Delivery{Offset: r.next, Lost: h.hi - h.lo})
	r.stats.LostSamples += h.hi - h.lo
	r.next = h.hi
	r.holes = r.holes[1:]
	return dv
}

// Expire declares lost every leading hole whose repair deadline has
// passed — openedAt + timeout ≤ now — and returns the deliveries that
// unlocks. Only leading holes can expire (delivery is in-order); a
// deeper expired hole emerges as the frontier advances. The caller drives
// the clock; the reassembler never consults time itself.
func (r *Reassembler) Expire(now time.Time, timeout time.Duration) []Delivery {
	var dv []Delivery
	for len(r.holes) > 0 && r.holes[0].lo == r.next && now.Sub(r.holes[0].openedAt) >= timeout {
		dv = r.loseFront(dv)
		dv = r.pop(dv)
	}
	return dv
}

// Flush ends the feed: every remaining hole — including the undelivered
// tail up to the declared total — is declared lost and everything buffered
// is delivered. After Flush the frontier equals the declared total. The
// session layer calls this when the client declares itself done feeding
// (FinishFeed), so a session can decide with a lost tail instead of
// waiting forever for audio that will never come.
func (r *Reassembler) Flush() []Delivery {
	dv := r.pop(nil)
	for len(r.holes) > 0 {
		dv = r.loseFront(dv)
		dv = r.pop(dv)
	}
	if r.next < r.total {
		n := r.total - r.next
		dv = append(dv, Delivery{Offset: r.next, Lost: n})
		r.stats.LostSamples += n
		r.next = r.total
	}
	return dv
}
