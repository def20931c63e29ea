// Command piano-loadgen drives a piano.Service with thousands of concurrent
// authentication sessions and reports what the service did under that load:
// p50/p95/p99 decision latency, achieved sessions/sec, and shed counts by
// typed error category — human-readable on stdout and machine-readable with
// -json.
//
// Two load models, chosen by -rate:
//
//   - Closed loop (-rate 0, the default): -concurrency workers each open
//     their next session the moment the previous one resolves. The offered
//     load adapts to the server's speed, which makes it the right tool for
//     saturation search — raise -concurrency until sessions/sec stops
//     rising and latency starts climbing.
//   - Open loop (-rate R): sessions arrive on a seeded Poisson process at R
//     sessions/sec (internal/arrival.Arrivals) no matter how the server is
//     doing — the way real traffic behaves, and the model that actually
//     exercises admission control: when the service falls behind, arrivals
//     keep coming and the queue bounds shed them with ErrOverloaded.
//
// -stream switches each session from the batch Authenticate call to the
// online session API: audio is fed chunk-by-chunk on the session's seeded
// arrival schedule (jittered chunk sizes, underrun bursts, clients that
// stall or vanish mid-feed at -abandon-rate, reaped by the lifecycle
// watchdog), with chunks delivered flat-out — the chunking stresses the
// incremental scan path without slaving the run to audio real time.
//
// -grid ignores the single-run flags and records the full scaling matrix —
// GOMAXPROCS × concurrency × {batch, stream} — as the BENCH_loadgen.json
// report.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/acoustic-auth/piano"
	"github.com/acoustic-auth/piano/internal/arrival"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "piano-loadgen:", err)
		os.Exit(1)
	}
}

// opts bundles one load run's knobs.
type opts struct {
	sessions    int
	rate        float64 // sessions/sec; > 0 switches to the open-loop driver
	concurrency int     // closed-loop worker count
	stream      bool
	retry       bool
	seed        int64

	// Service sizing.
	workers     int
	maxSessions int
	queueDepth  int
	queueWait   time.Duration
	idleTimeout time.Duration

	// Stream-mode arrival model.
	chunkMS     int
	jitter      float64
	underrun    float64
	abandonRate float64

	// Stream-mode lossy-transport model: any knob > 0 switches the feed
	// from plain chunks to framed chunks over a seeded lossy wire
	// (internal/arrival.Wire) — frames dropped, duplicated, reordered, and
	// corrupted on a schedule that replays exactly per seed.
	loss    float64
	dup     float64
	reorder float64
	corrupt float64
}

// framed reports whether the run feeds framed chunks over the lossy wire.
func (o opts) framed() bool {
	return o.loss > 0 || o.dup > 0 || o.reorder > 0 || o.corrupt > 0
}

// Shed categories, in report order. Every typed terminal error the service
// can hand a load-generator client maps to exactly one of these; "other" is
// reserved for errors the harness does not know — its count growing on a
// known typed error is a reporting bug (pinned by TestCategoryCoversTypedErrors).
var categories = []string{"overloaded", "closed", "stalled", "expired", "internal", "canceled", "insufficient", "other"}

// category buckets one failed session by its typed cause. The reap
// categories are checked before the context ones: a watchdog resolution is
// reported as what the server decided (stalled/expired), never as the bare
// context error the losing feeder also observed.
func category(err error) string {
	switch {
	case errors.Is(err, piano.ErrSessionStalled):
		return "stalled"
	case errors.Is(err, piano.ErrSessionExpired):
		return "expired"
	case errors.Is(err, piano.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, piano.ErrClosed):
		return "closed"
	case errors.Is(err, piano.ErrInternal):
		return "internal"
	case errors.Is(err, piano.ErrInsufficientAudio):
		// The transport lost audio the decision would have had to trust;
		// the server refused typed rather than guess. First-class, never
		// "other": operators alert on this one separately.
		return "insufficient"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "other"
	}
}

// Percentiles is the decision-latency distribution of completed sessions.
type Percentiles struct {
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// percentile returns the q-quantile of the sorted latencies in
// milliseconds, by the nearest-rank method (0 when nothing completed).
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// Summary is one load run's machine-readable report.
type Summary struct {
	Mode           string         `json:"mode"` // "batch" | "stream"
	Loop           string         `json:"loop"` // "closed" | "open"
	GOMAXPROCS     int            `json:"gomaxprocs"`
	Workers        int            `json:"workers"`
	Concurrency    int            `json:"concurrency,omitempty"`
	OfferedRate    float64        `json:"offered_rate_per_sec,omitempty"`
	Sessions       int            `json:"sessions"`
	Completed      int            `json:"completed"`
	Granted        int            `json:"granted"`
	Degraded       int            `json:"degraded"`
	Shed           map[string]int `json:"shed"`
	WallMS         float64        `json:"wall_ms"`
	SessionsPerSec float64        `json:"sessions_per_sec"`
	Latency        Percentiles    `json:"decision_latency"`
}

// outcome is one session's terminal state.
type outcome struct {
	lat      time.Duration
	granted  bool
	degraded bool // decided despite transport loss (Decision.Degraded != nil)
	err      error
}

// driver runs sessions against one service under one opts set.
type driver struct {
	svc    *piano.Service
	o      opts
	arrCfg arrival.Config
}

// workload builds one request per simulated user: device pairs staggered
// around the threshold, distinct skews, per-session seeds derived from the
// run seed so every run is replayable.
func workload(sessions int, seed int64) []piano.AuthRequest {
	reqs := make([]piano.AuthRequest, sessions)
	for i := range reqs {
		dist := 0.3 + 0.15*float64(i%10)
		reqs[i] = piano.AuthRequest{
			Auth:  piano.DeviceSpec{Name: fmt.Sprintf("hub-%d", i), X: 0, Y: 0, ClockSkewPPM: float64(5 + i%25)},
			Vouch: piano.DeviceSpec{Name: fmt.Sprintf("watch-%d", i), X: dist, Y: 0, ClockSkewPPM: -float64(3 + i%20)},
			Seed:  seed + int64(i),
		}
	}
	return reqs
}

// one runs a single session to its terminal state.
func (d *driver) one(ctx context.Context, req piano.AuthRequest) outcome {
	if d.o.stream {
		return d.oneStream(ctx, req)
	}
	start := time.Now()
	var dec *piano.Decision
	var err error
	if d.o.retry {
		dec, err = d.svc.AuthenticateWithRetry(ctx, req, piano.RetryPolicy{Seed: req.Seed})
	} else {
		dec, err = d.svc.AuthenticateContext(ctx, req)
	}
	if err != nil {
		return outcome{err: err}
	}
	return outcome{lat: time.Since(start), granted: dec.Granted}
}

// oneStream runs a single streaming session: open, feed both roles on their
// seeded arrival chunk schedules (flat-out — the schedule shapes the
// chunking, not the pacing), decide at the horizon. A client whose drawn
// fate is Stall/Abandon stops feeding and waits for the lifecycle watchdog
// to reap the session with a typed error, exactly like a vanished device.
func (d *driver) oneStream(ctx context.Context, req piano.AuthRequest) outcome {
	if d.o.framed() {
		return d.oneStreamFramed(ctx, req)
	}
	start := time.Now()
	sess, err := d.svc.OpenSessionContext(ctx, req)
	if err != nil {
		return outcome{err: err}
	}
	roles := []piano.Role{piano.RoleAuth, piano.RoleVouch}
	src := map[piano.Role]*arrival.Source{}
	for ri, role := range roles {
		if src[role], err = arrival.New(d.arrCfg, req.Seed*2+int64(ri)); err != nil {
			sess.Close()
			return outcome{err: err}
		}
	}
	at := map[piano.Role]int{}
	alive := true
	for alive {
		fedAny := false
		for _, role := range roles {
			rec := sess.Recording(role)
			ev := src[role].Next(at[role], len(rec))
			switch ev.Kind {
			case arrival.Chunk, arrival.Underrun:
				if ferr := sess.Feed(role, rec[at[role]:at[role]+ev.N]); ferr != nil {
					if errors.Is(ferr, piano.ErrStreamDecided) {
						break // decided on the other role's feed; fetch below
					}
					return outcome{err: ferr}
				}
				at[role] += ev.N
				fedAny = true
			case arrival.Stall, arrival.Abandon:
				alive = false
			}
		}
		if !alive || ctx.Err() != nil {
			break
		}
		dec, need, terr := sess.TryResult()
		if terr != nil {
			return outcome{err: terr}
		}
		if need == 0 {
			return outcome{lat: time.Since(start), granted: dec.Granted}
		}
		if !fedAny {
			return outcome{err: fmt.Errorf("session undecided after the full feed (need %d)", need)}
		}
	}
	// The client vanished (or the run was interrupted): do what a dead
	// client does — stop feeding, never Close — and poll gently until the
	// watchdog (or cancellation) resolves the session with a typed error.
	// Audio already past the horizon may still decide during the wait.
	for {
		dec, need, terr := sess.TryResult()
		if terr != nil {
			return outcome{err: terr}
		}
		if need == 0 {
			return outcome{lat: time.Since(start), granted: dec.Granted}
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// oneStreamFramed runs a single streaming session over the lossy wire:
// each role's frames arrive on their seeded wire schedule — dropped,
// duplicated, reordered, corrupted — and the session reassembles them,
// deciding early when it can. Corrupt frames are refused typed by the
// server and this client does not retransmit (no NACK channel), so they
// become gaps; once a role's schedule is exhausted the client declares
// that transport finished and unrepaired gaps become loss. A session past
// the loss ceiling resolves ErrInsufficientAudio — the "insufficient"
// category — and a decision that survived loss is counted degraded.
func (d *driver) oneStreamFramed(ctx context.Context, req piano.AuthRequest) outcome {
	start := time.Now()
	sess, err := d.svc.OpenSessionContext(ctx, req)
	if err != nil {
		return outcome{err: err}
	}
	wire := arrival.WireConfig{
		LossProb:    d.o.loss,
		DupProb:     d.o.dup,
		ReorderProb: d.o.reorder,
		CorruptProb: d.o.corrupt,
	}
	roles := []piano.Role{piano.RoleAuth, piano.RoleVouch}
	evs := map[piano.Role][]arrival.WireEvent{}
	for ri, role := range roles {
		evs[role], err = arrival.Wire(d.arrCfg, wire, req.Seed*2+int64(ri), len(sess.Recording(role)))
		if err != nil {
			sess.Close()
			return outcome{err: err}
		}
	}
	at := map[piano.Role]int{}
	finished := map[piano.Role]bool{}
	for {
		fedAny := false
		for _, role := range roles {
			if finished[role] {
				continue
			}
			rec := sess.Recording(role)
			if at[role] >= len(evs[role]) {
				// Schedule exhausted: the transport is done; gaps become
				// loss now rather than waiting forever.
				if ferr := sess.FinishFeed(role); ferr != nil && !errors.Is(ferr, piano.ErrStreamDecided) {
					return outcome{err: ferr}
				}
				finished[role] = true
				continue
			}
			ev := evs[role][at[role]]
			at[role]++
			f := piano.NewFrame(ev.Seq, ev.Offset, rec[ev.Offset:ev.Offset+ev.N])
			if ev.Corrupt {
				f.CRC ^= 0xDEAD
			}
			ferr := sess.FeedFrame(role, f)
			switch {
			case ferr == nil, errors.Is(ferr, piano.ErrFrameCorrupt):
				fedAny = true
			case errors.Is(ferr, piano.ErrStreamDecided):
				// Decided on the other role's feed; fetch below.
			default:
				return outcome{err: ferr}
			}
		}
		if ctx.Err() != nil {
			sess.Close()
			_, rerr := sess.Result()
			return outcome{err: rerr}
		}
		dec, need, terr := sess.TryResult()
		if terr != nil {
			return outcome{err: terr}
		}
		if need == 0 {
			return outcome{lat: time.Since(start), granted: dec.Granted, degraded: dec.Degraded != nil}
		}
		if !fedAny && finished[roles[0]] && finished[roles[1]] {
			return outcome{err: fmt.Errorf("session undecided after the full framed feed (need %d)", need)}
		}
	}
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// runLoad drives the whole workload through the service and aggregates the
// outcomes. Closed loop: concurrency workers pulling the next request off a
// shared counter. Open loop: one goroutine per arrival, launched on the
// seeded Poisson schedule regardless of how many are still in flight.
func runLoad(ctx context.Context, svc *piano.Service, reqs []piano.AuthRequest, o opts) Summary {
	d := &driver{svc: svc, o: o, arrCfg: arrival.Config{
		ChunkMS:      o.chunkMS,
		Jitter:       o.jitter,
		UnderrunProb: o.underrun,
		StallProb:    o.abandonRate / 2,
		AbandonProb:  o.abandonRate - o.abandonRate/2,
	}}
	outcomes := make([]outcome, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	if o.rate > 0 {
		arr, err := arrival.NewArrivals(o.rate, o.seed)
		if err != nil {
			panic(err) // unreachable: rate validated in runCtx
		}
		for i := range reqs {
			if ctx.Err() != nil {
				for j := i; j < len(reqs); j++ {
					outcomes[j] = outcome{err: ctx.Err()}
				}
				break
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				outcomes[i] = d.one(ctx, reqs[i])
			}(i)
			if i < len(reqs)-1 {
				sleepCtx(ctx, arr.NextGap())
			}
		}
	} else {
		var next atomic.Int64
		for c := 0; c < o.concurrency; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(reqs) || ctx.Err() != nil {
						return
					}
					outcomes[i] = d.one(ctx, reqs[i])
				}
			}()
		}
	}
	wg.Wait()
	wall := time.Since(start)
	return summarize(outcomes, wall, o)
}

// summarize folds per-session outcomes into the run report.
func summarize(outcomes []outcome, wall time.Duration, o opts) Summary {
	s := Summary{
		Mode:        "batch",
		Loop:        "closed",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     o.workers,
		Concurrency: o.concurrency,
		OfferedRate: o.rate,
		Sessions:    len(outcomes),
		Shed:        map[string]int{},
		WallMS:      float64(wall) / float64(time.Millisecond),
	}
	if o.stream {
		s.Mode = "stream"
	}
	if o.rate > 0 {
		s.Loop = "open"
		s.Concurrency = 0
	}
	var lats []time.Duration
	for _, out := range outcomes {
		if out.err != nil {
			s.Shed[category(out.err)]++
			continue
		}
		s.Completed++
		if out.granted {
			s.Granted++
		}
		if out.degraded {
			s.Degraded++
		}
		lats = append(lats, out.lat)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	s.Latency = Percentiles{
		P50MS: percentile(lats, 0.50),
		P95MS: percentile(lats, 0.95),
		P99MS: percentile(lats, 0.99),
	}
	if wall > 0 {
		s.SessionsPerSec = float64(s.Completed) / wall.Seconds()
	}
	return s
}

// printSummary renders the human-readable report.
func printSummary(w io.Writer, s Summary) {
	fmt.Fprintf(w, "\n%s/%s-loop: %d sessions offered, %d completed (%d granted)\n",
		s.Mode, s.Loop, s.Sessions, s.Completed, s.Granted)
	if s.Degraded > 0 {
		fmt.Fprintf(w, "degraded:          %8d decided despite transport loss\n", s.Degraded)
	}
	if s.Loop == "open" {
		fmt.Fprintf(w, "offered rate:      %8.1f sessions/s\n", s.OfferedRate)
	} else {
		fmt.Fprintf(w, "concurrency:       %8d workers\n", s.Concurrency)
	}
	fmt.Fprintf(w, "achieved:          %8.2f sessions/s over %.0f ms (GOMAXPROCS %d, %d workers)\n",
		s.SessionsPerSec, s.WallMS, s.GOMAXPROCS, s.Workers)
	fmt.Fprintf(w, "decision latency:  p50 %.1f ms, p95 %.1f ms, p99 %.1f ms\n",
		s.Latency.P50MS, s.Latency.P95MS, s.Latency.P99MS)
	shed := 0
	for _, n := range s.Shed {
		shed += n
	}
	if shed > 0 {
		fmt.Fprintf(w, "shed %d/%d:", shed, s.Sessions)
		for _, cat := range categories {
			if n := s.Shed[cat]; n > 0 {
				fmt.Fprintf(w, " %s=%d", cat, n)
			}
		}
		fmt.Fprintln(w)
	}
}

// writeJSON writes v indented to path ("-" = w).
func writeJSON(w io.Writer, path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = w.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func run(w io.Writer, args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runCtx(ctx, w, args)
}

func runCtx(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("piano-loadgen", flag.ContinueOnError)
	fs.SetOutput(w)
	var o opts
	fs.IntVar(&o.sessions, "sessions", 64, "total sessions to offer")
	fs.Float64Var(&o.rate, "rate", 0, "open-loop arrival rate in sessions/sec (0 = closed loop)")
	fs.IntVar(&o.concurrency, "concurrency", 2*runtime.GOMAXPROCS(0), "closed-loop concurrent workers")
	fs.BoolVar(&o.stream, "stream", false, "drive the online session API instead of batch Authenticate")
	fs.BoolVar(&o.retry, "retry", false, "retry ErrOverloaded sheds with the default RetryPolicy")
	fs.Int64Var(&o.seed, "seed", 1, "run seed: per-session request seeds, arrival schedules, retry jitter")
	fs.IntVar(&o.workers, "workers", 0, "prewarmed scan workspaces (workers+1) and default session bound basis (0 = GOMAXPROCS)")
	fs.IntVar(&o.maxSessions, "max-sessions", 0, "concurrent-session bound (0 = 4 × workers)")
	fs.IntVar(&o.queueDepth, "queue-depth", 0, "admission queue depth bound (0 = unbounded)")
	fs.DurationVar(&o.queueWait, "queue-wait", 0, "admission queue wait bound (0 = unbounded)")
	fs.DurationVar(&o.idleTimeout, "idle-timeout", 0, "session idle timeout; required when -abandon-rate > 0 (0 = no watchdog)")
	fs.IntVar(&o.chunkMS, "chunk-ms", 20, "nominal chunk size in milliseconds (with -stream)")
	fs.Float64Var(&o.jitter, "jitter", 0, "± fractional spread on chunk sizes and gaps (with -stream)")
	fs.Float64Var(&o.underrun, "underrun", 0, "per-chunk underrun-burst probability (with -stream)")
	fs.Float64Var(&o.abandonRate, "abandon-rate", 0, "probability a client stalls/abandons mid-feed (with -stream)")
	fs.Float64Var(&o.loss, "loss", 0, "per-frame loss probability over the lossy wire (with -stream; any wire knob > 0 switches to framed feeding)")
	fs.Float64Var(&o.dup, "dup", 0, "per-frame duplication probability over the lossy wire (with -stream)")
	fs.Float64Var(&o.reorder, "reorder", 0, "per-frame reorder probability over the lossy wire (with -stream)")
	fs.Float64Var(&o.corrupt, "corrupt", 0, "per-frame corruption probability over the lossy wire (with -stream)")
	jsonPath := fs.String("json", "", "write the machine-readable summary to this path (\"-\" = stdout)")
	grid := fs.Bool("grid", false, "record the scaling grid (GOMAXPROCS × concurrency × mode) instead of one run")
	gomaxprocs := fs.Int("gomaxprocs", 0, "set GOMAXPROCS for the run (0 = leave)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.sessions < 1 {
		return fmt.Errorf("sessions must be positive, got %d", o.sessions)
	}
	if o.rate < 0 {
		return fmt.Errorf("rate must be ≥ 0, got %g", o.rate)
	}
	if o.rate == 0 && o.concurrency < 1 {
		return fmt.Errorf("concurrency must be positive in closed-loop mode, got %d", o.concurrency)
	}
	if o.abandonRate > 0 && o.idleTimeout <= 0 {
		return fmt.Errorf("-abandon-rate %g needs -idle-timeout > 0: abandoned sessions resolve only when the lifecycle watchdog is armed", o.abandonRate)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"loss", o.loss}, {"dup", o.dup}, {"reorder", o.reorder}, {"corrupt", o.corrupt}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("-%s %g outside [0, 1]", p.name, p.v)
		}
	}
	if o.framed() && !o.stream {
		return fmt.Errorf("-loss/-dup/-reorder/-corrupt model the framed transport and need -stream")
	}
	if *gomaxprocs > 0 {
		prev := runtime.GOMAXPROCS(*gomaxprocs)
		defer runtime.GOMAXPROCS(prev)
	}

	if *grid {
		return runGrid(ctx, w, *jsonPath)
	}

	cfg := piano.DefaultServiceConfig()
	cfg.Workers = o.workers
	cfg.MaxSessions = o.maxSessions
	cfg.MaxQueueDepth = o.queueDepth
	cfg.MaxQueueWait = o.queueWait
	cfg.SessionIdleTimeout = o.idleTimeout
	svc, err := piano.NewService(cfg)
	if err != nil {
		return err
	}
	defer svc.Close()
	if o.workers == 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}

	mode, loop := "batch", "closed"
	if o.stream {
		mode = "stream"
	}
	if o.rate > 0 {
		loop = fmt.Sprintf("open @ %g/s", o.rate)
	}
	fmt.Fprintf(w, "piano-loadgen: %d %s sessions, %s loop, GOMAXPROCS %d, %d workers\n",
		o.sessions, mode, loop, runtime.GOMAXPROCS(0), o.workers)

	s := runLoad(ctx, svc, workload(o.sessions, o.seed), o)
	printSummary(w, s)
	if *jsonPath != "" {
		if err := writeJSON(w, *jsonPath, s); err != nil {
			return err
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(w, "interrupted: remaining sessions reported as canceled")
		return nil
	}
	if s.Completed == 0 {
		// A run where nothing succeeded must fail loudly — a dashboard
		// scripting this binary should never mistake "every session shed or
		// refused" for a healthy run with odd numbers. An interrupted run
		// (above) is exempt: zero completions there are the operator's doing.
		return fmt.Errorf("no sessions completed (%d offered, all shed or refused)", s.Sessions)
	}
	return nil
}
