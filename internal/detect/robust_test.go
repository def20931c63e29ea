package detect

import (
	"context"
	"errors"
	"runtime"
	"testing"

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
// and subsequent scans are bit-identical to pre-panic scans. At GOMAXPROCS
// 4 the panicking block can land on a transient helper goroutine rather
// than the submitter; its recovery must isolate it all the same.
func TestScanPanicIsolation(t *testing.T) {
	rec, s1, s2 := benchRecording(t, 33, 52920)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		det, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
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
			t.Fatalf("GOMAXPROCS=%d: injected panic returned %v, want *PanicError", procs, err)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("GOMAXPROCS=%d: PanicError carries no stack", procs)
		}
		faultinject.Disable()

		// The detector must still scan, and identically: the poisoned
		// workspace must not have been recycled.
		for round := 0; round < 2; round++ {
			after, err := detectFloat(det, rec, s1, s2)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d round %d: post-panic scan failed: %v", procs, round, err)
			}
			for i := range clean {
				if clean[i] != after[i] {
					t.Fatalf("GOMAXPROCS=%d round %d: post-panic scan diverged: %+v != %+v", procs, round, after[i], clean[i])
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
