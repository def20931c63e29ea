package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/acoustic-auth/piano/internal/faultinject"
)

func TestRunServeSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-sessions", "4", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"bit-identical", "serial loop", "batched service", "sessions/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunServeStreamSmoke: the -stream demo must decide sessions early
// (before the full recording is fed), match the batch path, and say so.
// With bursty arrival a single underrun backlog can overshoot the horizon
// to the very end of one recording, so the early-decision check is "not
// every session at 100%" rather than "none".
func TestRunServeStreamSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-stream", "-stream-pace", "0", "-sessions", "3", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"bit-identical to the batch path", "time-to-decision", "% saved", "lifecycle watchdog"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "(100%)") >= 3 {
		t.Errorf("every session only decided at the full recording:\n%s", out)
	}
}

// TestRunServeStreamAbandon: with -abandon-rate 1 every client vanishes
// mid-feed; the demo must leave the sessions to the lifecycle watchdog,
// drain them with typed shed errors (or late decisions for clients that
// had already fed past the horizon), and report the counts.
func TestRunServeStreamAbandon(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, []string{
		"-stream", "-stream-pace", "0", "-sessions", "2", "-workers", "2",
		"-abandon-rate", "1", "-drain-timeout", "30s",
	})
	if err != nil {
		t.Fatalf("abandon run errored: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"left to the watchdog", "draining 2 unresolved sessions"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "stalled=") && !strings.Contains(out, "decided during the drain") {
		t.Errorf("no typed shed report or late decision after abandons:\n%s", out)
	}
	if strings.Contains(out, "closed=") {
		t.Errorf("a session hit the drain deadline instead of resolving typed:\n%s", out)
	}
}

// TestRunServeDrainWindowReported: the batch summary must report the drain
// as its own measured window and compute throughput over completed sessions
// in the burst window only — the regression was folding drain time (and, on
// an early-expiring budget, sessions that never finished) into one
// whole-run figure.
func TestRunServeDrainWindowReported(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-sessions", "3", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"drain: quiesced in", "ms burst", "sessions/s over 3 completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ms total,  ") && strings.Contains(out, "batched service") &&
		!strings.Contains(out, "ms burst") {
		t.Errorf("batched-service line reverted to whole-run wall time:\n%s", out)
	}
}

// TestRunServeStreamDrainDeadline: when -drain-timeout expires with
// sessions still unresolved, the report must split the populations — how
// many drained inside the window vs how many the deadline abandoned — not
// blend them into one wall-time figure.
func TestRunServeStreamDrainDeadline(t *testing.T) {
	var buf bytes.Buffer
	// -idle-timeout 30s parks the watchdog so neither abandoned session can
	// be reaped as stalled before the 1 ms drain budget force-closes it —
	// otherwise the watchdog races the deadline on a slow (-race) run.
	err := run(&buf, []string{
		"-stream", "-stream-pace", "0", "-sessions", "2", "-workers", "2",
		"-abandon-rate", "1", "-idle-timeout", "30s", "-drain-timeout", "1ms",
	})
	if err != nil {
		t.Fatalf("deadline run errored: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "at the deadline (budget 1ms)") {
		t.Errorf("abandoned sessions not reported against the expired budget:\n%s", out)
	}
	if !strings.Contains(out, "closed=2") {
		t.Errorf("deadline-closed sessions missing from the shed report:\n%s", out)
	}
}

// TestRunServeStreamInterrupt: cancellation mid-stream must report and exit
// cleanly, not error.
func TestRunServeStreamInterrupt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	if err := runCtx(ctx, &buf, []string{"-stream", "-stream-pace", "0", "-sessions", "2"}); err != nil {
		t.Fatalf("interrupted stream run errored: %v\n%s", err, buf.String())
	}
}

func TestRunServeBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-sessions", "x"},
		{"-stream", "-chaos"}, // fault injection only arms the batch pass
	} {
		if err := run(&bytes.Buffer{}, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunServeChaos: the -chaos flag must arm fault injection, tolerate the
// injected failures, and report the shed counts by category.
func TestRunServeChaos(t *testing.T) {
	var buf bytes.Buffer
	if err := runCtx(context.Background(), &buf, []string{"-sessions", "6", "-workers", "2", "-chaos", "-chaos-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"chaos: fault injection armed", "sessions/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunServeInterruptDrains: a cancellation landing mid-burst (what
// SIGINT/SIGTERM delivers through signal.NotifyContext) must stop
// admission, drain, and report instead of erroring out.
func TestRunServeInterruptDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Enable(1)
	defer faultinject.Disable()
	// The serial pass never fires service sites, so this cancels the run
	// deterministically during the service pass: on the second admitted
	// session.
	faultinject.Arm(faultinject.SiteServiceSession, faultinject.Fault{
		Action: faultinject.ActHook, Skip: 1, Times: 1, Hook: cancel,
	})
	var buf bytes.Buffer
	if err := runCtx(ctx, &buf, []string{"-sessions", "5", "-workers", "2"}); err != nil {
		t.Fatalf("interrupted run errored: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "interrupted: admission stopped") {
		t.Errorf("output missing drain report:\n%s", out)
	}
	if faultinject.Hits(faultinject.SiteServiceSession) != 1 {
		t.Error("cancellation hook never fired during the service pass")
	}
}

// TestRunServeStreamWireClean: duplication and reordering without loss
// must be fully repaired by the frame reassembler — every session decides
// clean and bit-identical to the batch path.
func TestRunServeStreamWireClean(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, []string{
		"-stream", "-stream-pace", "0", "-sessions", "3", "-workers", "2",
		"-dup", "0.2", "-reorder", "0.3",
	})
	if err != nil {
		t.Fatalf("clean wire run errored: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"lossy transport: framed chunks",
		"3 clean (bit-identical to batch), 0 degraded",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunServeStreamWireLoss: real frame loss must surface only as
// degraded decisions (with a loss report) or typed insufficient-audio
// refusals — never a silent divergence from batch.
func TestRunServeStreamWireLoss(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, []string{
		"-stream", "-stream-pace", "0", "-sessions", "3", "-workers", "2",
		"-loss", "0.05", "-corrupt", "0.03",
	})
	if err != nil {
		t.Fatalf("lossy wire run errored: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "degraded") && !strings.Contains(out, "insufficient") {
		t.Errorf("loss left no degraded or insufficient trace in the output:\n%s", out)
	}
}

// TestRunServeWireFlagValidation: wire knobs without -stream, or outside
// [0, 1], are rejected up front.
func TestRunServeWireFlagValidation(t *testing.T) {
	if err := run(&bytes.Buffer{}, []string{"-loss", "0.1"}); err == nil || !strings.Contains(err.Error(), "require -stream") {
		t.Fatalf("-loss without -stream accepted (err %v)", err)
	}
	if err := run(&bytes.Buffer{}, []string{"-stream", "-stream-pace", "0", "-sessions", "1", "-loss", "1.5"}); err == nil {
		t.Fatal("-loss 1.5 accepted")
	}
}

// TestRunServePreInterrupted: a process already signalled before the burst
// skips the service pass entirely.
func TestRunServePreInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	if err := runCtx(ctx, &buf, []string{"-sessions", "3"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "skipping the service pass") {
		t.Errorf("output missing early-interrupt report:\n%s", buf.String())
	}
}
