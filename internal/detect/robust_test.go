package detect

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/acoustic-auth/piano/internal/faultinject"
)

// TestDetectAllContextPreCanceled: DetectAll with a context canceled
// before the scan starts aborts at the first checkpoint with ctx.Err().
func TestDetectAllContextPreCanceled(t *testing.T) {
	rec, s1, s2 := benchRecording(t, 31, 52920)
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := det.DetectAll(ctx, rec, s1, s2); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled scan returned %v, want context.Canceled", err)
	}
	// A nil context scans exactly as before.
	if _, err := det.DetectAll(nil, rec, s1, s2); err != nil {
		t.Fatal(err)
	}
}

// TestDetectAllContextCancelMidScan: a fault-injection hook cancels
// DetectAll's context partway through the coarse scan's block grid; the scan must
// abort with ctx.Err() instead of finishing, and the detector must keep
// working for later scans with identical results.
func TestDetectAllContextCancelMidScan(t *testing.T) {
	rec, s1, s2 := benchRecording(t, 32, 52920)
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := detectFloat(det, rec, s1, s2)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Enable(1)
	defer faultinject.Disable()
	// Let a few blocks complete so cancellation genuinely lands mid-scan.
	faultinject.Arm(faultinject.SiteDetectBlock, faultinject.Fault{
		Action: faultinject.ActHook, Skip: 3, Times: 1, Hook: cancel,
	})
	if _, err := det.DetectAll(ctx, rec, s1, s2); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-scan cancel returned %v, want context.Canceled", err)
	}
	if faultinject.Hits(faultinject.SiteDetectBlock) != 1 {
		t.Fatal("cancellation hook never fired; the scan did not reach block 4")
	}
	faultinject.Disable()

	// The detector (and its pooled workspaces) must be unharmed.
	after, err := detectFloat(det, rec, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if clean[i] != after[i] {
			t.Fatalf("post-cancel scan diverged: %+v != %+v", after[i], clean[i])
		}
	}
}

// TestScanPanicIsolation: an injected panic in a scan block surfaces as a
// typed *PanicError (process intact), the poisoned workspace is discarded,
// and subsequent scans are bit-identical to pre-panic scans.
func TestScanPanicIsolation(t *testing.T) {
	rec, s1, s2 := benchRecording(t, 33, 52920)
	for _, pooled := range []bool{false, true} {
		det, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if pooled {
			p := NewPool(2)
			defer p.Close()
			det.UsePool(p)
		}
		clean, err := detectFloat(det, rec, s1, s2)
		if err != nil {
			t.Fatal(err)
		}

		faultinject.Enable(1)
		faultinject.Arm(faultinject.SiteDetectBlock, faultinject.Fault{
			Action: faultinject.ActPanic, Skip: 2, Times: 1,
		})
		_, err = detectFloat(det, rec, s1, s2)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("pooled=%v: injected panic returned %v, want *PanicError", pooled, err)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("pooled=%v: PanicError carries no stack", pooled)
		}
		faultinject.Disable()

		// The detector and (when attached) the pool must still scan, and
		// identically: the poisoned workspace must not have been recycled.
		for round := 0; round < 2; round++ {
			after, err := detectFloat(det, rec, s1, s2)
			if err != nil {
				t.Fatalf("pooled=%v round %d: post-panic scan failed: %v", pooled, round, err)
			}
			for i := range clean {
				if clean[i] != after[i] {
					t.Fatalf("pooled=%v round %d: post-panic scan diverged: %+v != %+v", pooled, round, after[i], clean[i])
				}
			}
		}
	}
}

// TestScanStallStillCompletes: an injected slow-scan stall delays but must
// not corrupt a scan.
func TestScanStallStillCompletes(t *testing.T) {
	rec, s1, s2 := benchRecording(t, 34, 52920)
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := detectFloat(det, rec, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(1)
	defer faultinject.Disable()
	faultinject.Arm(faultinject.SiteDetectBlock, faultinject.Fault{
		Action: faultinject.ActDelay, Delay: 2e6, Times: 3, // 2 ms
	})
	stalled, err := detectFloat(det, rec, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if clean[i] != stalled[i] {
			t.Fatalf("stalled scan diverged: %+v != %+v", stalled[i], clean[i])
		}
	}
	if faultinject.Hits(faultinject.SiteDetectBlock) != 3 {
		t.Fatalf("stall fired %d times, want 3", faultinject.Hits(faultinject.SiteDetectBlock))
	}
}

// TestPoolSurvivesPanickingTask: the last-resort recover in Pool workers —
// an arbitrary panicking task must not kill the worker goroutine; the pool
// keeps accepting and running work afterwards.
func TestPoolSurvivesPanickingTask(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	// offer is non-blocking by design; retry briefly while the worker
	// goroutine parks on the task queue.
	submit := func(fn func()) bool {
		for i := 0; i < 1000; i++ {
			if p.offer(fn) {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return false
	}
	boom := make(chan struct{})
	if !submit(func() { defer close(boom); panic("task bug") }) {
		t.Fatal("idle pool declined work")
	}
	<-boom
	// The single worker just panicked; it must still be alive to take
	// this task.
	ran := make(chan struct{})
	if !submit(func() { close(ran) }) {
		t.Fatal("pool worker died after a panicking task")
	}
	<-ran
}
