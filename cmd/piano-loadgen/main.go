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
// incremental scan path without slaving the run to audio real time. The
// feed loop is the shared client driver (internal/client), the same one
// piano-serve -stream runs.
//
// -grid ignores the single-run flags and records the full scaling matrix —
// GOMAXPROCS × concurrency × {batch, stream} — as the BENCH_loadgen.json
// report.
package main

import (
	"context"
	"encoding/json"
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
	"github.com/acoustic-auth/piano/internal/client"
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

// schedule is the stream-mode client's feed plan: the arrival model, the
// lossy wire when any wire knob is set, fed flat out.
func (o opts) schedule() client.Schedule {
	s := client.Schedule{Arrival: arrival.Config{
		ChunkMS:      o.chunkMS,
		Jitter:       o.jitter,
		UnderrunProb: o.underrun,
		StallProb:    o.abandonRate / 2,
		AbandonProb:  o.abandonRate - o.abandonRate/2,
	}}
	if w := (arrival.WireConfig{LossProb: o.loss, DupProb: o.dup, ReorderProb: o.reorder, CorruptProb: o.corrupt}); w != (arrival.WireConfig{}) {
		s.Wire = &w
	}
	return s
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
	svc   *piano.Service
	o     opts
	sched client.Schedule
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

// oneStream runs a single streaming session: open, then feed both roles
// on their seeded schedules flat out (the schedule shapes the chunking,
// not the pacing) until the session decides. A client whose drawn fate is
// Stall/Abandon stops feeding, never closes, and polls gently until the
// lifecycle watchdog reaps the session with a typed error, exactly like a
// vanished device; audio already past the horizon may still decide.
func (d *driver) oneStream(ctx context.Context, req piano.AuthRequest) outcome {
	start := time.Now()
	sess, err := d.svc.OpenSessionContext(ctx, req)
	if err != nil {
		return outcome{err: err}
	}
	rep, err := client.Drive(ctx, sess, req.Seed, d.sched)
	dec := rep.Decision
	for err == nil && dec == nil {
		time.Sleep(20 * time.Millisecond)
		dec, _, err = sess.TryResult()
	}
	if err != nil {
		sess.Close()
		return outcome{err: err}
	}
	return outcome{lat: time.Since(start), granted: dec.Granted, degraded: dec.Degraded != nil}
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
	d := &driver{svc: svc, o: o, sched: o.schedule()}
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
			s.Shed[client.Category(out.err)]++
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
		for _, cat := range client.Categories {
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
	sched := o.schedule()
	if err := sched.Validate(); err != nil {
		return err
	}
	if sched.Wire != nil && !o.stream {
		return fmt.Errorf("-loss/-dup/-reorder/-corrupt model the framed transport and need -stream")
	}
	if o.retry && o.stream {
		return fmt.Errorf("-retry retries batch Authenticate sheds and has no effect with -stream")
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

	s := runLoad(ctx, svc, client.Workload(o.sessions, o.seed), o)
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
