package detect

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/acoustic-auth/piano/internal/dsp"
	"github.com/acoustic-auth/piano/internal/sigref"
)

// MaxStreamLength bounds the total PCM one Stream may be declared to (and
// therefore ever ingest): ~6.3 minutes at 44.1 kHz. Like
// sigref.MaxSignalLength at the Step-II trust boundary, it keeps a
// hostile or buggy feeder from making the engine commit unbounded memory —
// the stream's buffer is allocated up front from the declared length, so
// the declaration is where the bound must hold.
const MaxStreamLength = 1 << 24

// ErrFeedOverflow is returned (wrapped, match with errors.Is) by
// Stream.Feed when the appended PCM would exceed the stream's declared
// recording length. The offending chunk is rejected whole; the stream
// remains usable with the audio fed so far.
var ErrFeedOverflow = errors.New("detect: streamed PCM exceeds the declared recording length")

// Stream is the package's one Algorithm-1 engine: a recording's scan,
// fed chunk by chunk while the audio is still arriving, or all at once.
//
// The stream is declared with the recording's total length up front (the
// session knows its recording duration before the first sample exists), so
// the coarse window grid, the fine-scan clamping range, and the
// WindowsScanned cost accounting are all fixed a priori. Feed appends PCM
// and advances the coarse scan over exactly the windows the new samples
// completed, on the fixed block grid and in window order; Results reduces
// the scanned prefix and, once the audio covering each candidate's fine
// band has arrived, runs the fine scan (streamed hops + exact-at-peak
// re-check, via fineLocate). Batch detection is the same stream fed once:
// FedStream and DetectAll borrow a complete recording as the buffer, scan
// it in one pass, and reduce it with the same Results.
//
// Determinism contract: after the full declared length has been fed —
// in chunks of ANY size, including all at once — Results is bit-identical
// to FedStream over the complete recording, at any GOMAXPROCS. Results
// called on a prefix is the exact deterministic fold of that prefix's
// windows: it equals the complete recording's result whenever no unscanned
// tail window both passes the α/β sanity checks and beats the prefix
// maximum (the session layer derives a protocol horizon after which the
// schedule guarantees that; see core).
//
// A Stream serializes its own methods with an internal mutex, but the
// intended use is one feeder per stream. It must not be used after its
// Detector is gone.
type Stream struct {
	d     *Detector
	specs []*sigSpec
	band  bandRange

	winLen int
	total  int // declared recording length, samples
	limit  int // total − winLen: last window start of the full recording
	grid   dsp.HopGrid
	stream bool // coarse scan below the sliding-DFT break-even

	maxLost int // lost-sample ceiling (MaxLossFraction × total)

	mu sync.Mutex
	// rec is the audio arrived so far: PCM appended into a buffer of cap
	// total (NewStream), or a complete recording borrowed whole (FedStream,
	// DetectAll), which no Feed can then grow or overwrite.
	rec     recSource
	scanned int       // coarse windows scored so far (prefix, window order)
	scores  []float64 // coarse scores, grid.Count × len(specs)

	// Lossy-transport accounting: spans declared lost via FeedLost,
	// merged ascending, zero-filled in rec. Windows overlapping them are
	// excluded from the Results fold (see loss.go).
	lost        []lostSpan
	lostSamples int
}

// NewStream opens an incremental scan for a recording declared to be total
// samples long, allocating its buffer up front. The signals must share
// Params (length and grid); total must cover at least one window and stay
// within MaxStreamLength.
func (d *Detector) NewStream(total int, sigs ...*sigref.Signal) (*Stream, error) {
	if total > MaxStreamLength {
		return nil, fmt.Errorf("detect: declared recording %d exceeds the %d-sample stream bound", total, MaxStreamLength)
	}
	st, err := d.newStream(total, sigs)
	if err != nil {
		return nil, err
	}
	st.rec.pcm = make([]int16, 0, total)
	return st, nil
}

// FedStream opens a Stream over a complete int16 PCM recording — the
// representation sessions record (audio.Buffer.Samples) — already fed: the
// recording is borrowed as the stream's buffer, not copied, and its whole
// coarse grid is scanned now (observing ctx as Feed does; nil ctx scans
// without checkpoints). The caller must not mutate pcm while the stream is
// in use. Results then decides without needing more audio. The widening
// conversion is fused into the engine's FFT pack stage and sliding-window
// feed, so results are bit-identical to DetectAll(audio.ToFloat(pcm), ...).
func (d *Detector) FedStream(ctx context.Context, pcm []int16, sigs ...*sigref.Signal) (*Stream, error) {
	return d.fedStream(ctx, recSource{pcm: pcm}, sigs)
}

// fedStream is FedStream over either sample representation.
func (d *Detector) fedStream(ctx context.Context, rec recSource, sigs []*sigref.Signal) (*Stream, error) {
	st, err := d.newStream(rec.len(), sigs)
	if err != nil {
		return nil, err
	}
	st.rec = rec
	if err := st.advance(ctx); err != nil {
		return nil, err
	}
	return st, nil
}

// newStream validates the signals and lays out the fixed scan grid for a
// total-sample recording; the caller installs the buffer.
func (d *Detector) newStream(total int, sigs []*sigref.Signal) (*Stream, error) {
	if len(sigs) == 0 {
		return nil, errors.New("detect: no signals given")
	}
	for _, s := range sigs {
		if s == nil {
			return nil, errors.New("detect: nil signal")
		}
		if s.Params() != sigs[0].Params() {
			return nil, errors.New("detect: signals have differing parameters")
		}
	}
	winLen := sigs[0].Params().Length
	if total < winLen {
		return nil, fmt.Errorf("detect: recording %d shorter than window %d", total, winLen)
	}
	band, err := d.cfg.scanBand(sigs[0].Params())
	if err != nil {
		return nil, err
	}
	specs := make([]*sigSpec, len(sigs))
	for i, s := range sigs {
		specs[i] = d.newSigSpec(s)
	}
	limit := total - winLen
	// The coarse scan streams (sliding-DFT hops between periodic full-FFT
	// resyncs) when the measured break-even says the incremental update is
	// cheaper than an independent band-restricted FFT per window; at the
	// paper's default coarse step of 1000 it is not.
	stream := !d.disableStream && dsp.StreamingWins(winLen, band.hi-band.lo, d.cfg.CoarseStep)
	block := fftScanBlock
	if stream {
		block = dsp.StreamResyncHops
	}
	grid := dsp.HopGrid{
		Lo:     0,
		Step:   d.cfg.CoarseStep,
		WinLen: winLen,
		Count:  limit/d.cfg.CoarseStep + 1,
		Block:  block,
	}
	frac := d.cfg.MaxLossFraction
	if frac == 0 {
		frac = DefaultMaxLossFraction
	}
	return &Stream{
		d:       d,
		specs:   specs,
		band:    band,
		winLen:  winLen,
		total:   total,
		limit:   limit,
		grid:    grid,
		stream:  stream,
		maxLost: int(frac * float64(total)),
		scores:  make([]float64, grid.Count*len(specs)),
	}, nil
}

// Fed returns how many samples have arrived so far.
func (st *Stream) Fed() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rec.len()
}

// Feed appends a chunk of PCM and scores every coarse window the new
// samples completed, through the detector's shared scan engine (transient
// helpers, pooled scratch, cancellation checkpoints between hop blocks).
// A chunk that would exceed the declared total is rejected whole with
// ErrFeedOverflow, leaving the stream usable. A scan error (cancellation,
// a recovered worker panic) leaves the appended audio in place with the
// scan frontier unchanged — a later Feed or Results resumes the scan.
func (st *Stream) Feed(ctx context.Context, pcm []int16) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if fed := st.rec.len(); fed+len(pcm) > st.total {
		return fmt.Errorf("%w: %d + %d samples against declared length %d",
			ErrFeedOverflow, fed, len(pcm), st.total)
	}
	st.rec.pcm = append(st.rec.pcm, pcm...)
	return st.advance(ctx)
}

// advance scores coarse windows [scanned, frontier) — the windows fully
// contained in the audio fed so far that have not been scored yet — in
// one scan call. Called with st.mu held.
//
// In exact-FFT coarse mode (the paper's default: coarse step 1000 is far
// above the sliding-DFT break-even) every window is scored by an
// independent band-restricted FFT, so scores are independent of how the
// windows are grouped into scan calls. In streaming coarse mode the engine
// resynchronizes (full-FFT Reset) at fixed StreamResyncHops block starts
// and slides within a block, so the scan restarts at the block containing
// the frontier, re-sliding a partial block's already-scored prefix —
// recomputing bit-identical values, never diverging from the fixed grid.
// A scan error leaves the frontier unchanged; the next call rescans.
func (st *Stream) advance(ctx context.Context) error {
	frontier := st.grid.CompleteWindows(st.rec.len())
	if frontier <= st.scanned {
		return nil
	}
	w0 := st.scanned
	if st.stream {
		w0 -= w0 % st.grid.Block
	}
	k := len(st.specs)
	if err := st.d.scanWindows(ctx, st.rec, st.winLen, st.grid.WindowStart(w0), st.grid.Step, frontier-w0, st.band, st.stream, st.specs, st.scores[w0*k:frontier*k], nil); err != nil {
		return err
	}
	st.scanned = frontier
	return nil
}

// Results reduces the scanned prefix into one Result per signal —
// Algorithm 1's argmax fold (strictly greater, so the earliest window wins
// a tie), the fine scan with its exact-at-peak re-check, and the ε·R_S
// absent check — over the windows arrived so far.
//
// The int return is the need: 0 when the results are valid for the current
// prefix, otherwise the largest number of additional samples required
// before they can be computed — because no coarse window is complete yet,
// or because a candidate's fine-scan band (argmax ± CoarseStep, clamped to
// the FULL recording's window range, plus one window length) has not fully
// arrived. Results is repeatable and side-effect-free on the scan state:
// calling it on a longer prefix re-reduces from the same scores.
//
// Cost accounting note: WindowsScanned and CoarseScanned report the FULL
// fixed grid's coarse count (known a priori from the declared length), not
// the prefix's — the modeled per-window cost of the eventual complete scan,
// which is what keeps an early decision's modeled timing equal to the
// complete recording's.
func (st *Stream) Results(ctx context.Context) ([]Result, int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	// A stream past its loss ceiling never decides — the refusal is
	// sticky and typed, whatever the caller does next.
	if err := st.ceiling(); err != nil {
		return nil, 0, err
	}
	// Resume a scan a failed Feed left behind (no-op otherwise).
	if err := st.advance(ctx); err != nil {
		return nil, 0, err
	}
	fed := st.rec.len()
	if st.scanned == 0 {
		return nil, st.grid.NeedFor(0) - fed, nil
	}

	// Degraded mode: windows overlapping a lost span hold zero-filled
	// fabricated audio. Their scores are computed (keeping the scan
	// arithmetic identical to a clean feed) but deterministically excluded
	// from the argmax — exclusion depends only on the fixed grid and the
	// lost spans, never on chunking or GOMAXPROCS.
	excl, nExcl := st.excludedWindows()

	k := len(st.specs)
	bestIdx := make([]int, k)
	bestPow := make([]float64, k)
	for s := range st.specs {
		bestPow[s] = math.Inf(-1)
		bestIdx[s] = -1
	}
	for w := 0; w < st.scanned; w++ {
		if excl != nil && excl[w] {
			continue
		}
		i := st.grid.WindowStart(w)
		row := st.scores[w*k : (w+1)*k]
		for s := range st.specs {
			if p := row[s]; p > bestPow[s] {
				bestPow[s], bestIdx[s] = p, i
			}
		}
	}

	// Every candidate's fine band must have arrived before any fine scan
	// runs, so a Results call either returns complete results or a need —
	// never a half-fine state.
	need := 0
	for s := range st.specs {
		if bestIdx[s] < 0 || math.IsInf(bestPow[s], -1) {
			continue
		}
		_, hi, _ := st.d.cfg.fineRange(bestIdx[s], st.limit)
		if n := hi + st.winLen - fed; n > need {
			need = n
		}
	}
	if need > 0 {
		return nil, need, nil
	}

	// Degraded-mode gates, after the candidates are known. A candidate
	// whose fine-scan span (argmax ± CoarseStep plus one window) touches a
	// lost span cannot be exact-at-peak re-checked against real audio; a ⊥
	// with excluded windows might have found its signal in the audio that
	// never arrived. Both refuse typed rather than guess.
	for s := range st.specs {
		if bestIdx[s] < 0 || math.IsInf(bestPow[s], -1) {
			if nExcl > 0 {
				return nil, 0, fmt.Errorf("%w: no signal in the surviving windows with %d of %d windows lost",
					ErrInsufficientAudio, nExcl, st.grid.Count)
			}
			continue
		}
		lo, hi, _ := st.d.cfg.fineRange(bestIdx[s], st.limit)
		if st.overlapsLost(lo, hi+st.winLen) {
			return nil, 0, fmt.Errorf("%w: fine-scan span [%d, %d) around the peak at %d overlaps lost audio",
				ErrInsufficientAudio, lo, hi+st.winLen, bestIdx[s])
		}
	}

	fineStream := !st.d.disableStream && dsp.StreamingWins(st.winLen, st.band.hi-st.band.lo, st.d.cfg.FineStep)
	sb := st.d.getScores(1)
	defer st.d.scorePool.Put(sb)
	results := make([]Result, k)
	for s, ss := range st.specs {
		if err := ctxErr(ctx); err != nil {
			return nil, 0, err
		}
		results[s].WindowsScanned = st.grid.Count
		results[s].CoarseScanned = st.grid.Count
		if bestIdx[s] < 0 || math.IsInf(bestPow[s], -1) {
			// Every scanned window failed the sanity checks: ⊥ on this
			// prefix (equal to the complete recording's ⊥ once the tail
			// holds no passing window — the horizon contract).
			results[s].Power = bestPow[s]
			results[s].Found = false
			continue
		}
		fineCount, err := st.d.fineLocate(ctx, st.rec, st.winLen, st.limit, st.band, fineStream, st.specs[s:s+1], sb, &bestPow[s], &bestIdx[s])
		if err != nil {
			return nil, 0, err
		}
		results[s].WindowsScanned += fineCount
		results[s].Power = bestPow[s]
		if bestPow[s] < ss.absentFloor {
			if nExcl > 0 {
				// An absent verdict is only trustworthy when every grid
				// window was scored: the signal may sit in the lost audio.
				return nil, 0, fmt.Errorf("%w: signal below the ε floor with %d of %d windows lost",
					ErrInsufficientAudio, nExcl, st.grid.Count)
			}
			results[s].Found = false
			continue
		}
		results[s].Location = bestIdx[s]
		results[s].Found = true
	}
	return results, 0, nil
}
