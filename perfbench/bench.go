package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/acoustic-auth/piano"
)

// clients is the closed-loop caller count: one per core of the 2-core
// reference machine, so the service is saturated without queueing.
const clients = 2

// sessionFunc runs one session of a workload.
type sessionFunc func(c *client, ctx context.Context, session int, req piano.AuthRequest) result

// workloads maps each workload name to its session driver.
var workloads = map[string]sessionFunc{
	"batch-closed":  (*client).batch,
	"stream-closed": (*client).stream,
	"stream-lossy":  (*client).lossy,
}

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	duration time.Duration // of the timed phases together
	trace    bool
	setups   int // set-ups timed; the reported setup_s is their median
	warmups  int // sessions per client in each set-up
	limit    int // caps sessions per phase (0: run for duration)
	split    int // batch_split sample size
	spans    string
}

// env is what set-up builds: the service under test, the seed's request
// pool, and the seed's recorded reference (nil for a seed without one).
type env struct {
	svc  *piano.Service
	pool []piano.AuthRequest
	ref  *seedRef
}

// setup builds the service (its constructor prewarms scan workspaces),
// generates the request pool, loads the reference, and runs warm-up
// sessions so FFT plans and pooled scratch are hot before timing.
func setup(ctx context.Context, o options) (*env, error) {
	svc, err := piano.NewService(piano.DefaultServiceConfig())
	if err != nil {
		return nil, err
	}
	e := &env{svc: svc, pool: requestPool(o.seed)}
	if e.ref, err = loadReference(o.seed); err != nil {
		svc.Close()
		return nil, err
	}
	if o.warmups > 0 {
		for _, r := range runPhase(ctx, e, workloads[o.workload], 0, clients*o.warmups, false).results {
			if r.err != nil {
				svc.Close()
				return nil, fmt.Errorf("warm-up session %d: %w", r.session, r.err)
			}
		}
	}
	return e, nil
}

// phase is one stretch of closed-loop load.
type phase struct {
	results    []result
	spans      []span
	wall       int64 // ns from the first call until the last session resolved
	allocBytes uint64
	gcCycles   uint32
}

// runPhase drives the service from the closed-loop clients until duration
// has passed (sessions already started finish) or limit sessions ran.
// Session k uses pool request k mod poolSize.
func runPhase(ctx context.Context, e *env, run sessionFunc, duration time.Duration, limit int, trace bool) phase {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	epoch := time.Now()
	var next atomic.Int64
	cs := make([]*client, clients)
	out := make([][]result, clients)
	var wg sync.WaitGroup
	for i := range cs {
		cs[i] = &client{svc: e.svc, epoch: epoch, trace: trace}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if (limit > 0 && k >= limit) || (limit == 0 && time.Since(epoch) >= duration) {
					return
				}
				r := run(cs[i], ctx, k, e.pool[k%poolSize])
				r.idx = k % poolSize
				out[i] = append(out[i], r)
			}
		}(i)
	}
	wg.Wait()
	p := phase{wall: int64(time.Since(epoch))}
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	for i := range cs {
		p.results = append(p.results, out[i]...)
		p.spans = append(p.spans, cs[i].spans...)
	}
	return p
}

// report is everything one run measured.
type report struct {
	setupS    []float64
	untraced  []phase
	traced    []phase
	split     split
	wrong     int
	checkedBy string // how decisions were checked
}

// measure runs the set-ups, the timed phase(s), the batch_split replay
// when tracing, and the decision check.
func measure(ctx context.Context, o options) (*report, error) {
	run, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rep := &report{}
	var e *env
	for i := 0; i < o.setups; i++ {
		t := time.Now()
		next, err := setup(ctx, o)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.setupS = append(rep.setupS, time.Since(t).Seconds())
		if e != nil {
			e.svc.Close()
		}
		e = next
	}
	defer e.svc.Close()

	if !o.trace {
		rep.untraced = []phase{runPhase(ctx, e, run, o.duration, o.limit, false)}
	} else {
		// Untraced and traced quarters alternate (off, on, on, off), so a
		// drift in machine speed during the run does not read as
		// tracing overhead.
		quarter := o.duration / 4
		for _, on := range []bool{false, true, true, false} {
			p := runPhase(ctx, e, run, quarter, o.limit, on)
			if on {
				rep.traced = append(rep.traced, p)
			} else {
				rep.untraced = append(rep.untraced, p)
			}
		}
		var err error
		if rep.split, err = batchSplit(ctx, e, o.split); err != nil {
			return nil, fmt.Errorf("batch_split: %w", err)
		}
		rep.wrong += rep.split.wrong
		if o.spans != "" {
			if err := writeSpans(o.spans, rep.traced); err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var all []result
	for _, p := range append(append([]phase(nil), rep.untraced...), rep.traced...) {
		all = append(all, p.results...)
	}
	wrong, by, err := checkDecisions(ctx, e, o.workload, all)
	if err != nil {
		return nil, fmt.Errorf("decision check: %w", err)
	}
	rep.wrong += wrong
	rep.checkedBy = by
	return rep, nil
}
