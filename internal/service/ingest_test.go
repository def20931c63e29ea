package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"github.com/acoustic-auth/piano/internal/arrival"
	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/frame"
)

// feedArrival drives one role's feed from a deterministic arrival schedule,
// delivering the chunk partition the model draws (gaps are skipped: the
// decision is timing-independent, which is exactly what the test pins).
func feedArrival(t *testing.T, sn *Session, role core.Role, cfg arrival.Config, seed int64) {
	t.Helper()
	rec := sn.Recording(role)
	chunks, _, err := arrival.Chunks(cfg, seed, len(rec))
	if err != nil {
		t.Fatalf("arrival.Chunks: %v", err)
	}
	at := 0
	for i, n := range chunks {
		if err := sn.Feed(role, rec[at:at+n]); err != nil {
			t.Fatalf("%v arrival chunk %d [%d, %d): %v", role, i, at, at+n, err)
		}
		at += n
	}
	if at != len(rec) {
		t.Fatalf("%v arrival schedule fed %d of %d samples", role, at, len(rec))
	}
}

// feedCleanWire sends one role's whole recording as frames over a clean
// wire: in order, intact, nothing lost.
func feedCleanWire(t *testing.T, sn *Session, role core.Role, seed int64) {
	t.Helper()
	evs, err := arrival.Wire(arrival.Config{Jitter: 0.2}, arrival.WireConfig{}, seed, len(sn.Recording(role)))
	if err != nil {
		t.Fatal(err)
	}
	if err := feedWire(t, sn, role, evs); err != nil {
		t.Fatalf("clean framed feed of %v failed: %v", role, err)
	}
}

// feedAlternating sends one role's recording in fixed chunks, alternating
// Feed and FeedFrame chunk by chunk: both land on the role's one
// reassembler.
func feedAlternating(t *testing.T, sn *Session, role core.Role, chunk int) {
	t.Helper()
	rec := sn.Recording(role)
	for i, at := 0, 0; at < len(rec); i, at = i+1, at+chunk {
		end := min(at+chunk, len(rec))
		var err error
		if i%2 == 0 {
			err = sn.Feed(role, rec[at:end])
		} else {
			err = sn.FeedFrame(role, frame.New(uint32(i), at, rec[at:end]))
		}
		if err != nil {
			t.Fatalf("%v chunk %d [%d, %d): %v", role, i, at, end, err)
		}
	}
}

// ingestSchedule is one way of delivering a session's audio.
type ingestSchedule struct {
	name string
	feed func(t *testing.T, sn *Session)
}

// chunkSchedules feed both roles with Feed in fixed chunks: one sample, a
// prime, a block multiple, and the whole recording at once.
func chunkSchedules() []ingestSchedule {
	var out []ingestSchedule
	for _, chunk := range []int{1, 1009, 4000, 1 << 30} {
		out = append(out, ingestSchedule{fmt.Sprintf("chunk-%d", chunk), func(t *testing.T, sn *Session) {
			feedSession(t, sn, chunk, 0, 0)
		}})
	}
	return out
}

// arrivalCfg is the live-microphone traffic model the arrival schedules
// draw from: jittered chunk sizes and underrun backlog bursts.
var arrivalCfg = arrival.Config{Jitter: 0.4, UnderrunProb: 0.25}

// arrivalSchedules feed both roles with arrival-model chunks, a different
// seed per role, for eight seeds.
func arrivalSchedules() []ingestSchedule {
	var out []ingestSchedule
	for seed := int64(1); seed <= 8; seed++ {
		out = append(out, ingestSchedule{fmt.Sprintf("arrival-%d", seed), func(t *testing.T, sn *Session) {
			feedArrival(t, sn, core.RoleAuth, arrivalCfg, seed)
			feedArrival(t, sn, core.RoleVouch, arrivalCfg, seed+1000)
		}})
	}
	return out
}

// serialAuthenticate is the service tests' independent oracle: the serial
// core pipeline on the request's buildSession output, through
// core.Authenticator.AuthenticateContext — no Session, no admission, so
// it shares nothing with the batch or streaming service paths past the
// session build.
func serialAuthenticate(t testing.TB, svc *AuthService, req Request) *core.Result {
	t.Helper()
	a, plays, err := svc.buildSession(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AuthenticateContext(context.Background(), plays...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkIngestBitIdentical opens a session on pairRequest(0.8, reqSeed) for
// every schedule at GOMAXPROCS 1, 2, 4, and 8 and requires each to decide
// bit-identically (Float64bits) to batch Authenticate and to the serial
// core oracle, with no degradation. A non-nil extra runs once per
// GOMAXPROCS setting after the schedules.
func checkIngestBitIdentical(t *testing.T, reqSeed int64, schedules []ingestSchedule, extra func(t *testing.T, svc *AuthService, req Request, procs int)) {
	t.Helper()
	svc := newService(t, 0)
	defer svc.Close()
	req := pairRequest(0.8, reqSeed)
	want, err := svc.authenticate(req)
	if err != nil {
		t.Fatal(err)
	}
	if serial := serialAuthenticate(t, svc, req); !sameDecision(want, serial) {
		t.Fatalf("batch Authenticate diverged from the serial core path:\nbatch  %+v\nserial %+v", want, serial)
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, sc := range schedules {
			if sc.name == "chunk-1" && procs > 1 && testing.Short() {
				continue
			}
			sn, err := svc.OpenSession(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			sc.feed(t, sn)
			res, err := sn.Result()
			if err != nil {
				t.Fatalf("procs=%d %s: %v", procs, sc.name, err)
			}
			if !sameDecision(res, want) || res.Session == nil || res.Session.Degraded != nil {
				t.Fatalf("procs=%d %s: decision diverged from batch:\nstream %+v\nbatch  %+v",
					procs, sc.name, res, want)
			}
		}
		if extra != nil {
			extra(t, svc, req, procs)
		}
	}
}

// TestSessionStreamBitIdenticalAnyChunking: Feed in fixed chunks of any
// size — down to one sample — decides bit-identically to batch.
func TestSessionStreamBitIdenticalAnyChunking(t *testing.T) {
	checkIngestBitIdentical(t, 41, chunkSchedules(), nil)
}

// TestSessionArrivalBitIdentical is the arrival-model determinism contract
// at the service level: a session fed by the live-microphone traffic model
// decides bit-identically to batch for every arrival seed.
func TestSessionArrivalBitIdentical(t *testing.T) {
	checkIngestBitIdentical(t, 59, arrivalSchedules(), nil)
}

// TestSessionFramedCleanBitIdentical: a framed session on a clean
// transport — frames in order, intact, nothing lost — decides
// bit-identically to batch and reports no degradation.
func TestSessionFramedCleanBitIdentical(t *testing.T) {
	checkIngestBitIdentical(t, 73, []ingestSchedule{{"clean-wire", func(t *testing.T, sn *Session) {
		feedCleanWire(t, sn, core.RoleAuth, 31)
		feedCleanWire(t, sn, core.RoleVouch, 32)
	}}}, nil)
}

// TestSessionIngestBitIdentical is the service-level ingestion property
// over the mixed paths: Feed and FeedFrame across roles and alternating
// within a role land on the role's one reassembler and decide
// bit-identically to batch, at GOMAXPROCS 1, 2, 4, and 8. A partial Feed
// closed by FinishFeed never leaves the session waiting: it decides
// degraded or refuses typed. The pure paths — fixed chunks, arrival-model
// chunks, clean-wire frames — are the three tests above, run through the
// same check.
func TestSessionIngestBitIdentical(t *testing.T) {
	schedules := []ingestSchedule{
		{"feed-and-frames", func(t *testing.T, sn *Session) {
			feedArrival(t, sn, core.RoleAuth, arrivalCfg, 9)
			feedCleanWire(t, sn, core.RoleVouch, 33)
		}},
		{"alternating", func(t *testing.T, sn *Session) {
			feedAlternating(t, sn, core.RoleAuth, 4000)
			feedAlternating(t, sn, core.RoleVouch, 1009)
		}},
	}
	checkIngestBitIdentical(t, 41, schedules, func(t *testing.T, svc *AuthService, req Request, procs int) {
		// FinishFeed after a partial Feed declares the rest lost: the
		// session must end, degraded or refused typed, never pending.
		for _, frac := range []int{4, 2} {
			sn, err := svc.OpenSession(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			for _, role := range []core.Role{core.RoleAuth, core.RoleVouch} {
				rec := sn.Recording(role)
				err := sn.Feed(role, rec[:len(rec)-len(rec)/frac])
				if err == nil {
					err = sn.FinishFeed(role)
				}
				if err != nil && !errors.Is(err, ErrInsufficientAudio) {
					t.Fatalf("procs=%d cut 1/%d: feeding %v: %v", procs, frac, role, err)
				}
			}
			res, need, err := sn.TryResult()
			switch {
			case errors.Is(err, ErrInsufficientAudio):
			case err != nil:
				t.Fatalf("procs=%d cut 1/%d: %v, want a decision or ErrInsufficientAudio", procs, frac, err)
			case need > 0:
				t.Fatalf("procs=%d cut 1/%d: still needs %d samples after FinishFeed", procs, frac, need)
			case res.Session == nil || res.Session.Degraded == nil:
				t.Fatalf("procs=%d cut 1/%d: lossy decision not reported degraded: %+v", procs, frac, res)
			}
		}
	})
}
