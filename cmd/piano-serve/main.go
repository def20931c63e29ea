// Command piano-serve demonstrates the batched multi-session
// authentication service: a long-lived piano.Service absorbing a burst of
// concurrent sessions from many device pairs, with all signal detection
// run through one shared detector.
//
// It runs the same workload twice — first as a serial loop over the
// classic one-pairing Deployment path, then as concurrent sessions through
// the Service — verifies the decisions agree session by session (the
// service's bit-identity promise), and reports both throughputs.
//
// The process shuts down gracefully on SIGINT/SIGTERM: admission stops,
// in-flight sessions are cancelled cooperatively and drained under
// -drain-timeout, and the shed counts are reported by failure type.
// -chaos arms the fault-injection registry (seeded by -chaos-seed) so the
// hardened failure paths — admission stalls, session panics, slow scans —
// can be watched from the command line.
//
// -stream switches to the online session API driven by the arrival
// traffic model (internal/arrival): jittered chunk sizes and gaps
// (-jitter), underrun backlog bursts (-underrun), and clients that stall
// or vanish mid-feed (-abandon-rate), with the service's lifecycle
// watchdog armed so abandoned sessions are reaped with typed errors and
// their slots reclaimed during the drain. The feed loop is the shared
// client driver (internal/client), the same one piano-loadgen runs.
//
// -loss/-dup/-reorder/-corrupt (with -stream) switch the feed to the
// framed lossy transport: chunks travel as CRC-protected frames that can
// be dropped, duplicated, reordered, or damaged in flight. Clean sessions
// stay bit-identical to batch; sessions that lost audio decide degraded
// (with a loss report) or refuse with a typed insufficient-audio error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/acoustic-auth/piano"
	"github.com/acoustic-auth/piano/internal/arrival"
	"github.com/acoustic-auth/piano/internal/client"
	"github.com/acoustic-auth/piano/internal/faultinject"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "piano-serve:", err)
		os.Exit(1)
	}
}

// run wires OS signals to the cancellable body: SIGINT/SIGTERM stop
// admission and start the drain.
func run(w io.Writer, args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runCtx(ctx, w, args)
}

// printShed reports the shed map in category order.
func printShed(w io.Writer, shed map[string]int, total, completed int) {
	if len(shed) == 0 {
		return
	}
	fmt.Fprintf(w, "\nshed %d/%d sessions:", total-completed, total)
	for _, cat := range client.Categories {
		if n := shed[cat]; n > 0 {
			fmt.Fprintf(w, " %s=%d", cat, n)
		}
	}
	fmt.Fprintln(w)
}

// runStreamDemo drives the online session API through the arrival traffic
// model: each role's audio arrives with jittered chunk sizes and gaps,
// underrun backlog bursts, and — at -abandon-rate — clients that stall or
// vanish mid-feed without closing their session. The service runs with a
// lifecycle watchdog armed, so abandoned sessions are reaped with typed
// errors and their slots reclaimed; healthy sessions decide the moment
// both recordings have revealed their signals, verified bit-identical
// against the batch path. With a lossy wire the chunks travel as CRC
// frames: corrupt frames bounce typed, lost audio is declared when each
// role's schedule runs out, and sessions decide degraded or refuse.
func runStreamDemo(ctx context.Context, w io.Writer, reqs []piano.AuthRequest, workers int, sched client.Schedule, idleTimeout, drainTimeout time.Duration) error {
	if err := sched.Validate(); err != nil {
		return err
	}
	arr := sched.Arrival

	// Arm the lifecycle watchdog: the idle bound must comfortably exceed
	// the longest legitimate inter-chunk gap the model can draw (jittered
	// period plus a worst-case underrun), scaled by the pace. The 2 s floor
	// (the whole bound at pace 0, where feeds have no modelled gaps) leaves
	// room for a healthy feeder starved of CPU on a busy machine, and stays
	// below the default 5 s -drain-timeout so abandoned clients are still
	// reaped within the drain.
	idle := 2 * time.Second
	if sched.Pace > 0 {
		maxGapMS := (float64(arr.ChunkMS)*(1+arr.Jitter) + 250) / sched.Pace
		if with := time.Duration(4 * maxGapMS * float64(time.Millisecond)); with > idle {
			idle = with
		}
	}
	if idleTimeout > 0 {
		idle = idleTimeout
	}
	svcCfg := piano.DefaultServiceConfig()
	svcCfg.Workers = workers
	svcCfg.SessionIdleTimeout = idle
	svc, err := piano.NewService(svcCfg)
	if err != nil {
		return err
	}
	defer svc.Close()

	// The session devices' nominal sampling rate (piano.DeviceSpec pairs
	// run at the prototype's 44.1 kHz).
	const rate = 44100.0
	fmt.Fprintf(w, "piano-serve -stream: %d sessions, ~%d ms chunks ±%.0f%%, underrun p=%.2f, abandon p=%.2f, pace %gx\n",
		len(reqs), arr.ChunkMS, 100*arr.Jitter, arr.UnderrunProb, arr.StallProb+arr.AbandonProb, sched.Pace)
	fmt.Fprintf(w, "lifecycle watchdog: SessionIdleTimeout %v (stalled clients reaped, slots reclaimed)\n", idle)
	if wire := sched.Wire; wire != nil {
		fmt.Fprintf(w, "lossy transport: framed chunks with loss p=%.2f, dup p=%.2f, reorder p=%.2f, corrupt p=%.2f\n",
			wire.LossProb, wire.DupProb, wire.ReorderProb, wire.CorruptProb)
	}
	fmt.Fprintln(w)

	var sumAudio, sumFull, sumStreamWall, sumBatchWall float64
	var pending []*piano.AuthSession // abandoned/interrupted sessions, left to the watchdog
	shed := map[string]int{}
	fates := map[arrival.Kind]int{}
	done, degradedN, corruptN, underruns := 0, 0, 0, 0
sessions:
	for i, req := range reqs {
		if ctx.Err() != nil {
			break
		}
		// Batch reference: the decision and its wall-clock scan time once
		// the full recording exists.
		batchStart := time.Now()
		ref, err := svc.Authenticate(req)
		if err != nil {
			return err
		}
		batchWall := time.Since(batchStart)

		sess, err := svc.OpenSessionContext(ctx, req)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			return err
		}
		start := time.Now()
		rep, err := client.Drive(ctx, sess, req.Seed, sched)
		streamWall := time.Since(start)
		corruptN += rep.Corrupt
		underruns += rep.Underruns
		audioSec := float64(max(rep.Fed[0], rep.Fed[1])) / rate
		switch {
		case err != nil && ctx.Err() != nil:
			pending = append(pending, sess)
			break sessions
		case errors.Is(err, piano.ErrInsufficientAudio):
			shed["insufficient"]++
			fmt.Fprintf(w, "  session %2d: refused — transport loss left too little intact audio (typed error, never a low-confidence guess)\n", i)
			continue
		case err != nil:
			return err
		case rep.Decision == nil:
			// The client vanished without closing its session. Do exactly
			// what a real dead client does — nothing — and let the
			// lifecycle watchdog reclaim the slot.
			fates[rep.Gone]++
			pending = append(pending, sess)
			fmt.Fprintf(w, "  session %2d: client %-8v after %4.0f ms of audio — left to the watchdog\n",
				i, rep.Gone, audioSec*1e3)
			continue
		}
		dec := rep.Decision
		note := ""
		if dec.Degraded != nil {
			// A degraded decision deliberately excluded lost windows, so
			// bit-identity with the loss-free batch scan is not promised.
			degradedN++
			note = fmt.Sprintf("  [degraded: %d samples lost, %d windows excluded]",
				dec.Degraded.LostSamples, dec.Degraded.LostWindows)
		} else if dec.Granted != ref.Granted || dec.Reason != ref.Reason ||
			math.Float64bits(dec.DistanceM) != math.Float64bits(ref.DistanceM) {
			return fmt.Errorf("session %d: streamed decision %+v diverged from batch %+v", i, dec, ref)
		}
		fullSec := math.Max(float64(len(sess.Recording(piano.RoleAuth))), float64(len(sess.Recording(piano.RoleVouch)))) / rate
		sumAudio += audioSec
		sumFull += fullSec
		sumStreamWall += streamWall.Seconds()
		sumBatchWall += batchWall.Seconds()
		done++
		fmt.Fprintf(w, "  session %2d: %-45s decided on %4.0f of %4.0f ms of audio (%.0f%%)%s\n",
			i, dec.Reason, audioSec*1e3, fullSec*1e3, 100*audioSec/fullSec, note)
	}

	// Shutdown/drain: every abandoned or interrupted session must resolve
	// with a typed error within the drain budget — the watchdog reaps
	// stalled clients, an interrupt cancels via the session context — and
	// its slot must come back. Sessions still open at the deadline are
	// closed explicitly so nothing leaks.
	lateDecided, abandonedAtDeadline := 0, 0
	if len(pending) > 0 {
		fmt.Fprintf(w, "\ndraining %d unresolved sessions (budget %v)...\n", len(pending), drainTimeout)
		drainStart := time.Now()
		deadline := drainStart.Add(drainTimeout)
		for _, sn := range pending {
			for {
				_, need, err := sn.TryResult()
				if err != nil {
					shed[client.Category(err)]++
					break
				}
				if need == 0 {
					// The client vanished, but the audio it had already fed
					// crossed the decision horizon — the session decides
					// instead of stalling out.
					lateDecided++
					break
				}
				if time.Now().After(deadline) {
					sn.Close()
					shed["closed"]++
					abandonedAtDeadline++
					break
				}
				// Poll gently: a TryResult in flight counts as session
				// activity (a scan is work, not a stall), so a hot poll
				// loop would itself keep shrinking the watchdog's window.
				time.Sleep(50 * time.Millisecond)
			}
		}
		drainDur := time.Since(drainStart)
		if lateDecided > 0 {
			fmt.Fprintf(w, "%d abandoned sessions had already fed past the decision horizon and decided during the drain\n", lateDecided)
		}
		// The drained and abandoned populations get separate windows: the
		// drain duration describes only the sessions that resolved inside
		// it, never the ones the expired budget force-closed.
		if abandonedAtDeadline > 0 {
			fmt.Fprintf(w, "drained %d sessions in %.0f ms; abandoned %d at the deadline (budget %v)\n",
				len(pending)-abandonedAtDeadline, drainDur.Seconds()*1e3, abandonedAtDeadline, drainTimeout)
		} else {
			fmt.Fprintf(w, "drained all %d sessions in %.0f ms (budget %v)\n",
				len(pending), drainDur.Seconds()*1e3, drainTimeout)
		}
	}
	printShed(w, shed, len(reqs), len(reqs)-len(pending)+lateDecided-shed["insufficient"])
	if ctx.Err() != nil {
		fmt.Fprintf(w, "interrupted: %d/%d streamed sessions completed\n", done, len(reqs))
		return nil
	}

	if done == 0 {
		fmt.Fprintln(w, "no sessions decided")
		return nil
	}
	n := float64(done)
	if sched.Wire != nil {
		fmt.Fprintf(w, "\n%d decided over the lossy wire: %d clean (bit-identical to batch), %d degraded by declared loss; %d refused for insufficient intact audio; %d corrupt frames rejected",
			done, done-degradedN, degradedN, shed["insufficient"], corruptN)
	} else {
		fmt.Fprintf(w, "\nall %d streamed decisions bit-identical to the batch path", done)
	}
	if underruns > 0 || fates[arrival.Stall]+fates[arrival.Abandon] > 0 {
		fmt.Fprintf(w, " (through %d underrun bursts; %d stalls and %d abandons reaped)",
			underruns, fates[arrival.Stall], fates[arrival.Abandon])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "time-to-decision (audio):  streaming %6.0f ms avg vs %6.0f ms full recording (%.0f%% saved)\n",
		sumAudio/n*1e3, sumFull/n*1e3, 100*(1-sumAudio/sumFull))
	fmt.Fprintf(w, "wall clock per session:    streaming %6.1f ms avg (paced %gx), batch scan-after-the-fact %6.1f ms\n",
		sumStreamWall/n*1e3, sched.Pace, sumBatchWall/n*1e3)
	fmt.Fprintln(w, "\n(a batch deployment must wait out the whole recording before scanning;")
	fmt.Fprintln(w, " the streaming session scans as audio arrives and decides at the protocol")
	fmt.Fprintln(w, " horizon — see ARCHITECTURE.md \"Online session\" and BENCH_online.json)")
	return nil
}

func runCtx(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("piano-serve", flag.ContinueOnError)
	sessions := fs.Int("sessions", 8, "number of authentication sessions in the burst")
	workers := fs.Int("workers", 0, "prewarmed scan workspaces (workers+1) and default session bound basis (0 = GOMAXPROCS)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "how long shutdown waits for in-flight sessions to drain")
	chaos := fs.Bool("chaos", false, "inject faults (admission stalls, session panics, slow scans) into the service pass")
	chaosSeed := fs.Int64("chaos-seed", 42, "fault-injection RNG seed (with -chaos)")
	stream := fs.Bool("stream", false, "run the online streaming demo: live-microphone arrival model, decide before the recording ends")
	streamPace := fs.Float64("stream-pace", 1.0, "audio arrival speed as a multiple of real time (0 = feed as fast as possible; with -stream)")
	chunkMS := fs.Int("chunk-ms", 20, "nominal microphone chunk size in milliseconds (with -stream)")
	jitter := fs.Float64("jitter", 0.2, "± fractional spread on chunk sizes and inter-chunk gaps, 0 ≤ j < 1 (with -stream)")
	underrun := fs.Float64("underrun", 0.05, "per-chunk probability of an underrun backlog burst (with -stream)")
	abandonRate := fs.Float64("abandon-rate", 0, "probability a client stalls or abandons mid-feed, leaving its session to the watchdog (with -stream)")
	idleTimeout := fs.Duration("idle-timeout", 0, "override the lifecycle watchdog's idle bound (0 = derive from the arrival model; with -stream)")
	loss := fs.Float64("loss", 0, "per-frame probability a framed chunk is lost in flight, enabling the lossy framed transport (with -stream)")
	dup := fs.Float64("dup", 0, "per-frame probability a framed chunk is duplicated in flight (with -stream)")
	reorder := fs.Float64("reorder", 0, "per-frame probability a framed chunk is delivered out of order (with -stream)")
	corrupt := fs.Float64("corrupt", 0, "per-frame probability a framed chunk is corrupted in flight and rejected by CRC (with -stream)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reqs := client.Workload(*sessions, 1000)
	sched := client.Schedule{
		Arrival: arrival.Config{
			ChunkMS:      *chunkMS,
			Jitter:       *jitter,
			UnderrunProb: *underrun,
			StallProb:    *abandonRate / 2,
			AbandonProb:  *abandonRate - *abandonRate/2,
		},
		Pace: *streamPace,
	}
	if wire := (arrival.WireConfig{LossProb: *loss, DupProb: *dup, ReorderProb: *reorder, CorruptProb: *corrupt}); wire != (arrival.WireConfig{}) {
		sched.Wire = &wire
	}

	if sched.Wire != nil && !*stream {
		return errors.New("-loss/-dup/-reorder/-corrupt model the framed streaming transport and require -stream")
	}

	if *stream {
		if *chaos {
			return errors.New("-chaos arms faults for the batch service pass and has no effect with -stream")
		}
		return runStreamDemo(ctx, w, reqs, *workers, sched, *idleTimeout, *drainTimeout)
	}

	fmt.Fprintf(w, "piano-serve: %d sessions, %d cores\n\n", len(reqs), runtime.GOMAXPROCS(0))

	// Reference pass: the classic serial path, one Deployment per pairing.
	// An interrupt truncates the workload so the service pass compares
	// against exactly the sessions that have references.
	serial := make([]*piano.Decision, 0, len(reqs))
	serialStart := time.Now()
	for _, req := range reqs {
		if ctx.Err() != nil {
			break
		}
		cfg := piano.DefaultConfig()
		cfg.Seed = req.Seed
		dep, err := piano.NewDeployment(cfg, req.Auth, req.Vouch)
		if err != nil {
			return err
		}
		dec, err := dep.Authenticate()
		if err != nil {
			return err
		}
		serial = append(serial, dec)
	}
	serialDur := time.Since(serialStart)
	if len(serial) < len(reqs) {
		fmt.Fprintf(w, "interrupted: %d/%d serial sessions completed; skipping the service pass\n",
			len(serial), len(reqs))
		return nil
	}

	if *chaos {
		faultinject.Enable(*chaosSeed)
		defer faultinject.Disable()
		faultinject.Arm(faultinject.SiteServiceAcquire, faultinject.Fault{
			Action: faultinject.ActDelay, Delay: 2 * time.Millisecond, Prob: 0.3,
		})
		faultinject.Arm(faultinject.SiteServiceSession, faultinject.Fault{
			Action: faultinject.ActPanic, Prob: 0.2,
		})
		faultinject.Arm(faultinject.SiteDetectBlock, faultinject.Fault{
			Action: faultinject.ActDelay, Delay: 200 * time.Microsecond, Prob: 0.01, Skip: 10,
		})
		fmt.Fprintf(w, "chaos: fault injection armed (seed %d): admission stalls, session panics, slow scans\n\n", *chaosSeed)
	}

	// Service pass: same sessions, all in flight at once, each under the
	// process context so SIGINT/SIGTERM cancels them cooperatively.
	svcCfg := piano.DefaultServiceConfig()
	svcCfg.Workers = *workers
	svcCfg.MaxSessions = len(reqs)
	svc, err := piano.NewService(svcCfg)
	if err != nil {
		return err
	}

	batched := make([]*piano.Decision, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	svcStart := time.Now()
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batched[i], errs[i] = svc.AuthenticateContext(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	svcDur := time.Since(svcStart)

	// Graceful shutdown: Close stops admission and drains whatever is
	// still in flight; the drain itself is bounded by -drain-timeout. The
	// drain is its own measured window — the burst stats above must never
	// absorb drain time, least of all a deadline that expired early.
	drainStart := time.Now()
	drained := make(chan struct{})
	go func() {
		svc.Close()
		close(drained)
	}()
	drainedOK := true
	select {
	case <-drained:
	case <-time.After(*drainTimeout):
		drainedOK = false
	}
	drainDur := time.Since(drainStart)
	if drainedOK {
		fmt.Fprintf(w, "drain: quiesced in %.1f ms (budget %v)\n", drainDur.Seconds()*1e3, *drainTimeout)
	} else {
		fmt.Fprintf(w, "drain: budget %v exhausted with sessions still in flight; stats cover the burst window only\n", *drainTimeout)
	}

	interrupted := ctx.Err() != nil
	shed := map[string]int{}
	granted, completed := 0, 0
	for i, dec := range batched {
		if errs[i] != nil {
			if !interrupted && !*chaos {
				return errs[i]
			}
			shed[client.Category(errs[i])]++
			continue
		}
		ref := serial[i]
		if dec.Granted != ref.Granted || dec.Reason != ref.Reason ||
			math.Float64bits(dec.DistanceM) != math.Float64bits(ref.DistanceM) {
			return fmt.Errorf("session %d: service %+v diverged from serial %+v", i, dec, ref)
		}
		completed++
		if dec.Granted {
			granted++
		}
		fmt.Fprintf(w, "  session %2d: %-45s", i, dec.Reason)
		if dec.DistanceM != 0 {
			fmt.Fprintf(w, " (%.2f m)", dec.DistanceM)
		}
		fmt.Fprintln(w)
	}

	printShed(w, shed, len(reqs), completed)
	if interrupted {
		fmt.Fprintf(w, "interrupted: admission stopped, %d in-flight sessions drained\n", completed)
		return nil
	}

	// Rates are computed over the sessions that actually completed inside
	// the burst window (svcDur ends at the last Authenticate return, before
	// the drain starts), so a chaos run or an early-expiring drain budget
	// can never inflate — or dilute — the throughput figure.
	serialRate := float64(len(reqs)) / serialDur.Seconds()
	svcRate := float64(completed) / svcDur.Seconds()
	fmt.Fprintf(w, "\n%d/%d granted; every completed session bit-identical to its serial run\n", granted, completed)
	fmt.Fprintf(w, "serial loop:        %8.1f ms total, %6.2f sessions/s\n",
		serialDur.Seconds()*1e3, serialRate)
	fmt.Fprintf(w, "batched service:    %8.1f ms burst, %6.2f sessions/s over %d completed (%.2fx)\n",
		svcDur.Seconds()*1e3, svcRate, completed, svcRate/serialRate)
	fmt.Fprintln(w, "\n(the speedup scales with cores: sessions and their scan helpers share")
	fmt.Fprintln(w, " the machine's cores, so a 1-core machine shows ~1x and an 8-core machine")
	fmt.Fprintln(w, " approaches the core count; see PERFORMANCE.md)")
	return nil
}
