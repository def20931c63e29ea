package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/acoustic-auth/piano/internal/arrival"
	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/faultinject"
	"github.com/acoustic-auth/piano/internal/frame"
)

// frameOutcome captures how a framed session ended, in a form comparable
// across GOMAXPROCS values and repeats: either a decision (with its
// degraded-mode accounting) or a typed error's string.
type frameOutcome struct {
	decided   bool
	granted   bool
	reason    core.Reason
	distBits  uint64
	lostSamp  int
	lostWin   int
	errString string
}

func outcomeOf(res *core.Result, err error) frameOutcome {
	if err != nil {
		return frameOutcome{errString: err.Error()}
	}
	o := frameOutcome{decided: true, granted: res.Granted, reason: res.Reason,
		distBits: math.Float64bits(res.DistanceM)}
	if res.Session != nil && res.Session.Degraded != nil {
		o.lostSamp = res.Session.Degraded.LostSamples
		o.lostWin = res.Session.Degraded.LostWindows
	}
	return o
}

// feedWire replays one role's wire schedule into the session as frames:
// corrupt frames are sent with a damaged CRC and must be refused typed
// (never scored); every other frame must be accepted. The role's transport
// is then declared finished, so unrepaired gaps become loss. A fatal typed
// resolution (insufficient audio past the ceiling) ends the replay early
// and is returned.
func feedWire(t *testing.T, sn *Session, role core.Role, evs []arrival.WireEvent) error {
	t.Helper()
	rec := sn.Recording(role)
	for _, ev := range evs {
		f := frame.New(ev.Seq, ev.Offset, rec[ev.Offset:ev.Offset+ev.N])
		if ev.Corrupt {
			f.CRC ^= 0xDEAD
			err := sn.FeedFrame(role, f)
			switch {
			case errors.Is(err, ErrFrameCorrupt):
				continue // refused whole, session open — the contract
			case errors.Is(err, ErrInsufficientAudio), errors.Is(err, ErrStreamDecided):
				return err
			default:
				t.Fatalf("corrupt frame seq %d returned %v, want ErrFrameCorrupt", ev.Seq, err)
			}
		}
		if err := sn.FeedFrame(role, f); err != nil {
			if errors.Is(err, ErrInsufficientAudio) || errors.Is(err, ErrStreamDecided) {
				return err
			}
			t.Fatalf("frame seq %d [%d, %d): %v", ev.Seq, ev.Offset, ev.Offset+ev.N, err)
		}
	}
	if err := sn.FinishFeed(role); err != nil {
		if errors.Is(err, ErrInsufficientAudio) || errors.Is(err, ErrStreamDecided) {
			return err
		}
		t.Fatalf("FinishFeed(%v): %v", role, err)
	}
	return nil
}

// runFramed opens a session and replays each role's wire schedule
// (derived deterministically from seed — per-role streams are
// decorrelated), returning the comparable outcome.
func runFramed(t *testing.T, svc *AuthService, req Request, wire arrival.WireConfig, seed int64) frameOutcome {
	t.Helper()
	sn, err := svc.OpenSession(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	for i, role := range []core.Role{core.RoleAuth, core.RoleVouch} {
		evs, err := arrival.Wire(arrival.Config{Jitter: 0.2}, wire, seed+int64(i)*977, len(sn.Recording(role)))
		if err != nil {
			t.Fatal(err)
		}
		if ferr := feedWire(t, sn, role, evs); ferr != nil {
			return outcomeOf(nil, ferr)
		}
	}
	return outcomeOf(sn.Result())
}

// TestSessionFramedSeededLossDeterministic is the loss-determinism
// property: for any seeded loss/dup/reorder/corrupt pattern, a framed
// session reaches the same decision — or the same typed error — at
// GOMAXPROCS 1, 2, 4, and 8, across repeats. Light loss must stay under
// the ceiling (a decision, possibly degraded); total loss must refuse
// typed with ErrInsufficientAudio, never decide.
func TestSessionFramedSeededLossDeterministic(t *testing.T) {
	svc := newService(t, 0)
	defer svc.Close()

	wires := []struct {
		name       string
		cfg        arrival.WireConfig
		mustRefuse bool
	}{
		// Light loss may decide degraded or refuse typed (if the peak's
		// fine band was hit) — what matters is that the outcome is a pure
		// function of the seed. Total loss must always refuse typed.
		{"light", arrival.WireConfig{LossProb: 0.04, DupProb: 0.1, ReorderProb: 0.2, CorruptProb: 0.03}, false},
		{"heavy", arrival.WireConfig{LossProb: 0.9}, true},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, w := range wires {
		for _, seed := range []int64{5, 9} {
			req := pairRequest(0.8, 100+seed)
			var base frameOutcome
			first := true
			for _, procs := range []int{1, 2, 4, 8} {
				runtime.GOMAXPROCS(procs)
				reps := 2
				if testing.Short() {
					reps = 1
				}
				for rep := 0; rep < reps; rep++ {
					got := runFramed(t, svc, req, w.cfg, seed)
					if first {
						base, first = got, false
						if w.mustRefuse && (got.decided || got.errString == "") {
							t.Fatalf("%s seed=%d: total loss decided anyway: %+v", w.name, seed, got)
						}
						if !got.decided && got.errString == "" {
							t.Fatalf("%s seed=%d: no outcome recorded", w.name, seed)
						}
						continue
					}
					if got != base {
						t.Fatalf("%s seed=%d procs=%d rep=%d: outcome diverged:\n got %+v\nbase %+v",
							w.name, seed, procs, rep, got, base)
					}
				}
			}
		}
	}
}

// TestSessionFramedTailLossDecidesDegraded pins the degraded-decision
// contract: loss confined to the recording's tail — past every signal, so
// the peak's fine band is intact — must not block the decision. The
// session decides with the same Granted/Reason/DistanceM bits as batch and
// reports exactly the lost samples in Degraded; the excluded-window count
// is a pure function of the hop grid, so it too is identical across
// GOMAXPROCS.
func TestSessionFramedTailLossDecidesDegraded(t *testing.T) {
	svc := newService(t, 0)
	defer svc.Close()
	req := pairRequest(0.8, 87)
	want, err := svc.authenticate(req)
	if err != nil {
		t.Fatal(err)
	}

	const tailGap = 8000
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var base frameOutcome
	for pi, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		sn, err := svc.OpenSession(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for _, role := range []core.Role{core.RoleAuth, core.RoleVouch} {
			rec := sn.Recording(role)
			stop := len(rec) - tailGap
			const chunk = 4096
			seq := uint32(0)
			for off := 0; off < stop; off += chunk {
				end := off + chunk
				if end > stop {
					end = stop
				}
				if err := sn.FeedFrame(role, frame.New(seq, off, rec[off:end])); err != nil {
					t.Fatal(err)
				}
				seq++
			}
			// The tail never arrives; FinishFeed declares it lost.
			if err := sn.FinishFeed(role); err != nil {
				t.Fatalf("FinishFeed(%v): %v", role, err)
			}
		}
		res, err := sn.Result()
		if err != nil {
			t.Fatalf("procs=%d: tail loss blocked the decision: %v", procs, err)
		}
		if res.Granted != want.Granted || res.Reason != want.Reason ||
			math.Float64bits(res.DistanceM) != math.Float64bits(want.DistanceM) {
			t.Fatalf("procs=%d: degraded decision diverged from batch:\nframed %+v\nbatch  %+v", procs, res, want)
		}
		d := res.Session.Degraded
		if d == nil || d.LostSamples != 2*tailGap || d.LostWindows == 0 {
			t.Fatalf("procs=%d: degraded report %+v, want %d lost samples across both roles", procs, d, 2*tailGap)
		}
		got := outcomeOf(res, nil)
		if pi == 0 {
			base = got
		} else if got != base {
			t.Fatalf("procs=%d: degraded outcome diverged: %+v vs %+v", procs, got, base)
		}
	}
}

// TestSessionFramedCorruptThenRepair: a corrupt frame is refused whole and
// never scored; retransmitting it intact repairs the stream and the
// decision is bit-identical to batch with no degradation.
func TestSessionFramedCorruptThenRepair(t *testing.T) {
	svc := newService(t, 0)
	defer svc.Close()
	req := pairRequest(0.8, 83)
	want, err := svc.authenticate(req)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := svc.OpenSession(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, role := range []core.Role{core.RoleAuth, core.RoleVouch} {
		rec := sn.Recording(role)
		const chunk = 2048
		seq := uint32(0)
		for off := 0; off < len(rec); off += chunk {
			end := off + chunk
			if end > len(rec) {
				end = len(rec)
			}
			f := frame.New(seq, off, rec[off:end])
			if seq%5 == 2 {
				bad := f
				bad.CRC ^= 1
				if err := sn.FeedFrame(role, bad); !errors.Is(err, ErrFrameCorrupt) {
					t.Fatalf("corrupt frame returned %v, want ErrFrameCorrupt", err)
				}
			}
			if err := sn.FeedFrame(role, f); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		if st := sn.FrameStats(role); st.Corrupt == 0 || st.LostSamples != 0 {
			t.Fatalf("%v stats %+v: want corrupt counted, nothing lost", role, st)
		}
	}
	res, err := sn.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecision(res, want) {
		t.Fatalf("repaired framed decision diverged:\nframed %+v\nbatch  %+v", res, want)
	}
	if res.Session.Degraded != nil {
		t.Fatalf("fully repaired session reported degradation: %+v", res.Session.Degraded)
	}
}

// TestSessionGapRepairTimeout: a gap the transport never repairs is
// declared lost by the lifecycle watchdog once GapRepairTimeout passes,
// releasing the audio buffered behind it — the session then resolves
// without the client ever calling FinishFeed: either a degraded decision
// accounting exactly the withheld samples, or a typed insufficient-audio
// refusal if the gap hit audio the decision needed.
func TestSessionGapRepairTimeout(t *testing.T) {
	svc, err := New(Config{
		Core:             core.DefaultConfig(),
		Workers:          2,
		MaxSessions:      2,
		GapRepairTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sn, err := svc.OpenSession(context.Background(), pairRequest(0.8, 85))
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()

	const gapLo, gapN = 1000, 500
	for _, role := range []core.Role{core.RoleAuth, core.RoleVouch} {
		rec := sn.Recording(role)
		if err := sn.FeedFrame(role, frame.New(0, 0, rec[:gapLo])); err != nil {
			t.Fatal(err)
		}
		lo := gapLo
		if role == core.RoleAuth {
			lo += gapN // withhold [gapLo, gapLo+gapN) forever on one role
		} else {
			// The vouch role feeds clean.
			lo = gapLo
		}
		const chunk = 4096
		seq := uint32(1)
		for off := lo; off < len(rec); off += chunk {
			end := off + chunk
			if end > len(rec) {
				end = len(rec)
			}
			if err := sn.FeedFrame(role, frame.New(seq, off, rec[off:end])); err != nil {
				t.Fatal(err)
			}
			seq++
		}
	}
	// The auth role is fully fed except the withheld gap; nothing more will
	// arrive. Only the watchdog can unwedge it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, need, err := sn.TryResult()
		if err != nil {
			if !errors.Is(err, ErrInsufficientAudio) {
				t.Fatalf("gap expiry resolved to %v, want a decision or ErrInsufficientAudio", err)
			}
			return
		}
		if need == 0 {
			if res.Session.Degraded == nil || res.Session.Degraded.LostSamples != gapN {
				t.Fatalf("degraded report %+v, want exactly the %d withheld samples", res.Session.Degraded, gapN)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never declared the gap lost (still need %d)", need)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// openRetrying opens a session, backing off (doubling from 5 ms, capped at
// 250 ms) and retrying while admission sheds with ErrOverloaded, for at
// most 50 attempts; the last error is returned when they run out.
func openRetrying(svc *AuthService, req Request) (*Session, error) {
	delay := 5 * time.Millisecond
	for attempt := 1; ; attempt++ {
		sn, err := svc.OpenSession(context.Background(), req)
		if !errors.Is(err, ErrOverloaded) || attempt == 50 {
			return sn, err
		}
		time.Sleep(delay)
		delay = min(2*delay, 250*time.Millisecond)
	}
}

// TestChaosLossStorm is the loss-storm chaos scenario: concurrent framed
// sessions over seeded lossy wires while injected faults fail individual
// frames and stall scans, with some callers abandoning mid-feed. The
// invariant extends the PR-6 storms: every session resolves to a typed
// error or to a deterministic decision (clean sessions bit-identical to
// their baseline; degraded sessions deterministic per seed), no slot
// leaks, and the service stays serviceable after the storm.
func TestChaosLossStorm(t *testing.T) {
	svc, err := New(Config{
		Core:          core.DefaultConfig(),
		Workers:       2,
		MaxSessions:   3,
		MaxQueueWait:  200 * time.Millisecond,
		MaxQueueDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	reqs := make([]Request, 3)
	for i := range reqs {
		reqs[i] = pairRequest(0.5+0.4*float64(i), int64(90+i))
	}
	baseline := make([]*core.Result, len(reqs))
	for i, req := range reqs {
		if baseline[i], err = svc.authenticate(req); err != nil {
			t.Fatal(err)
		}
	}

	errChaosFrame := fmt.Errorf("chaos: injected frame fault")
	faultinject.Enable(37)
	defer faultinject.Disable()
	faultinject.Arm(faultinject.SiteFrameFeed, faultinject.Fault{
		Action: faultinject.ActError, Err: errChaosFrame, Prob: 0.05,
	})
	faultinject.Arm(faultinject.SiteDetectBlock, faultinject.Fault{
		Action: faultinject.ActDelay, Delay: 200 * time.Microsecond, Prob: 0.01, Skip: 5,
	})

	const storm = 12
	var wg sync.WaitGroup
	outcomes := make([]frameOutcome, storm)
	errs := make([]error, storm)
	for g := 0; g < storm; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Admission shedding is not what this storm tests: like
			// AuthenticateWithRetry, back off and retry an overloaded open.
			sn, err := openRetrying(svc, reqs[g%len(reqs)])
			if err != nil {
				errs[g] = err
				return
			}
			wire := arrival.WireConfig{LossProb: 0.05, DupProb: 0.1, ReorderProb: 0.2, CorruptProb: 0.05}
			if g%3 == 0 {
				wire = arrival.WireConfig{} // a third of the fleet has a clean wire
			}
		roles:
			for i, role := range []core.Role{core.RoleAuth, core.RoleVouch} {
				rec := sn.Recording(role)
				evs, werr := arrival.Wire(arrival.Config{Jitter: 0.2}, wire, int64(g*13+7+i*977), len(rec))
				if werr != nil {
					errs[g] = werr
					return
				}
				for j, ev := range evs {
					if g%4 == 1 && i == 1 && j > len(evs)/2 {
						// Abandon mid-feed: the slot must still come back.
						sn.Close()
						_, errs[g] = sn.Result()
						return
					}
					f := frame.New(ev.Seq, ev.Offset, rec[ev.Offset:ev.Offset+ev.N])
					if ev.Corrupt {
						bad := f
						bad.CRC ^= 0xBEEF
						ferr := sn.FeedFrame(role, bad)
						if !errors.Is(ferr, ErrFrameCorrupt) && !errors.Is(ferr, errChaosFrame) {
							errs[g] = fmt.Errorf("corrupt frame returned %v, want ErrFrameCorrupt", ferr)
							break roles
						}
						// The sender's retransmission repairs it below.
					}
					// Injected frame faults refuse the frame with the
					// session open: retransmit until it lands, like a real
					// sender with acks.
					var ferr error
					for try := 0; try < 50; try++ {
						if ferr = sn.FeedFrame(role, f); !errors.Is(ferr, errChaosFrame) {
							break
						}
					}
					switch {
					case ferr == nil:
					case errors.Is(ferr, ErrInsufficientAudio):
						errs[g] = ferr
						return
					default:
						errs[g] = ferr
						break roles
					}
				}
				if ferr := sn.FinishFeed(role); ferr != nil {
					errs[g] = ferr
					break roles
				}
			}
			if errs[g] != nil {
				sn.Close()
				return
			}
			res, rerr := sn.Result()
			if rerr != nil {
				errs[g] = rerr
				sn.Close()
				return
			}
			outcomes[g] = outcomeOf(res, nil)
			if res.Session != nil && res.Session.Degraded == nil {
				// Clean-wire decisions must be bit-identical to baseline.
				if !sameDecision(res, baseline[g%len(reqs)]) {
					errs[g] = fmt.Errorf("clean framed session diverged: %+v vs %+v", res, baseline[g%len(reqs)])
				}
			}
		}(g)
	}
	wg.Wait()

	var ok, typed int
	for g := 0; g < storm; g++ {
		if errs[g] == nil {
			ok++
			continue
		}
		typed++
		if !chaosTyped(errs[g], true) && !errors.Is(errs[g], ErrInsufficientAudio) {
			t.Fatalf("session %d resolved to an untyped error: %v", g, errs[g])
		}
	}
	t.Logf("loss storm: %d decisions, %d typed failures", ok, typed)
	if ok == 0 {
		t.Fatal("loss storm produced no decisions at all — the scenario proved nothing")
	}

	// No slot leaks and fully serviceable: with chaos off, MaxSessions
	// fresh sessions must all be admittable and a framed clean session must
	// match its baseline.
	faultinject.Disable()
	open := make([]*Session, 0, 3)
	for i := 0; i < 3; i++ {
		sn, err := svc.OpenSession(context.Background(), reqs[i])
		if err != nil {
			t.Fatalf("slot %d leaked: %v", i, err)
		}
		open = append(open, sn)
	}
	for _, sn := range open[1:] {
		sn.Close()
	}
	sn := open[0]
	for i, role := range []core.Role{core.RoleAuth, core.RoleVouch} {
		evs, err := arrival.Wire(arrival.Config{Jitter: 0.2}, arrival.WireConfig{}, 301+int64(i), len(sn.Recording(role)))
		if err != nil {
			t.Fatal(err)
		}
		if ferr := feedWire(t, sn, role, evs); ferr != nil {
			t.Fatal(ferr)
		}
	}
	res, err := sn.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecision(res, baseline[0]) {
		t.Fatalf("post-storm framed session diverged:\n%+v\n%+v", res, baseline[0])
	}
}
