package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/acoustic-auth/piano/internal/acoustic"
	"github.com/acoustic-auth/piano/internal/arrival"
	"github.com/acoustic-auth/piano/internal/attack"
	"github.com/acoustic-auth/piano/internal/core"
	"github.com/acoustic-auth/piano/internal/detect"
	"github.com/acoustic-auth/piano/internal/device"
	"github.com/acoustic-auth/piano/internal/frame"
)

// updateDecisions re-records testdata/decision_golden.json.
//
// The corpus pins every authentication decision the pipeline makes over a
// fixed grid of scenes and ingestion paths, so a refactor of Step IV (or
// anything else on the decision path) is provably behaviour-preserving:
// the file must come out byte-identical. Re-record only for a deliberate
// behaviour change — a new detection rule, a changed RNG draw order, a
// re-baselined renderer (see internal/world's TestRenderGolden) — and say
// so in the change description:
//
//	go test ./internal/core/ -run TestDecisionGolden -update
//
// then review the diff entry by entry. A corpus diff without such a change
// is a regression.
var updateDecisions = flag.Bool("update", false, "re-record the golden decision corpus in testdata/")

const decisionGoldenPath = "testdata/decision_golden.json"

// goldenOutcome is one pinned decision: the access outcome with its exact
// distance bits and degraded-mode accounting, or the typed-error class of
// a refusal.
type goldenOutcome struct {
	Granted      bool   `json:"granted,omitempty"`
	Reason       string `json:"reason,omitempty"`
	DistanceBits string `json:"distance_bits,omitempty"`
	LostSamples  int    `json:"lost_samples,omitempty"`
	LostWindows  int    `json:"lost_windows,omitempty"`
	Err          string `json:"err,omitempty"`
}

// errClass maps a session error onto its typed class; an untyped error
// fails the test rather than being pinned.
func errClass(t *testing.T, err error) string {
	t.Helper()
	switch {
	case errors.Is(err, detect.ErrInsufficientAudio):
		return "insufficient-audio"
	case errors.Is(err, detect.ErrFeedOverflow):
		return "feed-overflow"
	case errors.Is(err, core.ErrStreamDecided):
		return "stream-decided"
	}
	t.Fatalf("untyped session error: %v", err)
	return ""
}

func outcome(t *testing.T, res *core.Result, err error) goldenOutcome {
	t.Helper()
	if err != nil {
		return goldenOutcome{Err: errClass(t, err)}
	}
	o := goldenOutcome{
		Granted:      res.Granted,
		Reason:       res.Reason.String(),
		DistanceBits: fmt.Sprintf("%016x", math.Float64bits(res.DistanceM)),
	}
	if res.Session != nil && res.Session.Degraded != nil {
		o.LostSamples = res.Session.Degraded.LostSamples
		o.LostWindows = res.Session.Degraded.LostWindows
	}
	return o
}

// goldenScene is one seeded acoustic situation of the corpus.
type goldenScene struct {
	seed   int64
	env    acoustic.Environment
	distM  float64
	attack string // "none", "guessing-replay", "all-frequency"
}

func (sc goldenScene) key(path string) string {
	return fmt.Sprintf("seed%d/%s/%.1fm/%s/%s", sc.seed, sc.env, sc.distM, sc.attack, path)
}

// authenticator builds the scene's pairing (fixed clock skews, vouching
// device distM away in the same room), its session rng, and the attack's
// extra plays drawn from that rng — the same draw order the §VI-E
// security campaign uses.
func (sc goldenScene) authenticator(t *testing.T, det *detect.Detector) (*core.Authenticator, []core.ExtraPlay) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.World.Environment = sc.env
	auth, err := device.NewSessionDevice("auth", "", 0, 0, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	vouch, err := device.NewSessionDevice("vouch", "", sc.distM, 0, 0, -18)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(sc.seed))
	a, err := core.NewAuthenticator(cfg, auth, vouch, rng)
	if err != nil {
		t.Fatal(err)
	}
	a.UseDetector(det)
	var plays []core.ExtraPlay
	switch sc.attack {
	case "none":
	case "guessing-replay", "all-frequency":
		atk, err := attack.NewAttackerDevice("attacker", [2]float64{0.4, 0.3}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sc.attack == "guessing-replay" {
			plays, err = attack.GuessingReplay(cfg.Signal, atk, rng)
		} else {
			plays, err = attack.AllFrequency(cfg.Signal, atk, cfg.World.DurationSec, 1, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown attack %q", sc.attack)
	}
	return a, plays
}

var goldenRoles = []core.Role{core.RoleAuth, core.RoleVouch}

// decideStreamed feeds each role its whole recording in the seeded
// arrival-model chunking, then decides once.
func decideStreamed(t *testing.T, as *core.AuthStream, seed int64) (*core.Result, error) {
	t.Helper()
	for i, role := range goldenRoles {
		rec := as.Recording(role)
		chunks, _, err := arrival.Chunks(arrival.Config{Jitter: 0.2}, seed+int64(i)*977, len(rec))
		if err != nil {
			t.Fatal(err)
		}
		at := 0
		for _, n := range chunks {
			if err := as.Feed(role, rec[at:at+n]); err != nil {
				return nil, err
			}
			at += n
		}
	}
	return tryFinal(t, as)
}

// decideFramed sends each role's recording as CRC frames over the seeded
// wire model, reassembles them in arrival order, replays the in-order
// deliveries (data and declared-lost spans) into the stream, declares the
// transport finished, then decides once.
func decideFramed(t *testing.T, as *core.AuthStream, wire arrival.WireConfig, seed int64) (*core.Result, error) {
	t.Helper()
	for i, role := range goldenRoles {
		rec := as.Recording(role)
		evs, err := arrival.Wire(arrival.Config{Jitter: 0.2}, wire, seed+int64(i)*977, len(rec))
		if err != nil {
			t.Fatal(err)
		}
		ra, err := frame.NewReassembler(len(rec), frame.DefaultWindow)
		if err != nil {
			t.Fatal(err)
		}
		deliver := func(dv []frame.Delivery) error {
			for _, d := range dv {
				var err error
				if d.Lost > 0 {
					err = as.FeedLost(role, d.Lost)
				} else {
					err = as.Feed(role, d.PCM)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
		for _, ev := range evs {
			f := frame.New(ev.Seq, ev.Offset, rec[ev.Offset:ev.Offset+ev.N])
			if ev.Corrupt {
				f.CRC ^= 0xDEAD
			}
			dv, _, ferr := ra.Add(f, time.Time{})
			if err := deliver(dv); err != nil {
				return nil, err
			}
			if ferr != nil && !(ev.Corrupt && errors.Is(ferr, frame.ErrCorrupt)) {
				t.Fatalf("frame seq %d: %v", ev.Seq, ferr)
			}
		}
		if err := deliver(ra.Flush()); err != nil {
			return nil, err
		}
	}
	return tryFinal(t, as)
}

// tryFinal calls TryResult on a fully fed stream, which must decide (or
// refuse typed) without asking for more audio.
func tryFinal(t *testing.T, as *core.AuthStream) (*core.Result, error) {
	t.Helper()
	res, need, err := as.TryResult()
	if err == nil && need != 0 {
		t.Fatalf("fully fed stream still needs %d samples", need)
	}
	return res, err
}

// TestDecisionGolden pins the decision corpus: 2 seeds × the 4 noisy
// environments × a pair inside and outside τ = 1 m × {no attack, guessing
// replay, all-frequency spoofing}, each decided four ways — batch,
// streamed in arrival-model chunks, framed over a clean wire, and framed
// over a seeded lossy wire. Every outcome's Granted, Reason, distance
// bits, Degraded counts, and typed-error class must equal the recorded
// corpus exactly. Like the render golden, the corpus was recorded on
// linux/amd64; see updateDecisions for the re-record procedure.
func TestDecisionGolden(t *testing.T) {
	det, err := detect.New(detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Light enough that some scenes decide degraded and others refuse
	// typed (loss inside a peak's fine band, or a ⊥ with windows lost).
	lossy := arrival.WireConfig{LossProb: 0.02, DupProb: 0.1, ReorderProb: 0.2, CorruptProb: 0.01}
	got := map[string]goldenOutcome{}
	scene := int64(0)
	for _, seed := range []int64{3, 11} {
		for _, env := range []acoustic.Environment{acoustic.EnvOffice, acoustic.EnvHome, acoustic.EnvRestaurant, acoustic.EnvStreet} {
			for _, distM := range []float64{0.6, 1.4} {
				for _, atk := range []string{"none", "guessing-replay", "all-frequency"} {
					sc := goldenScene{seed: seed, env: env, distM: distM, attack: atk}
					// Each scene gets its own chunking and wire schedule.
					scene++
					feedSeed := 1000*seed + scene

					a, plays := sc.authenticator(t, det)
					res, err := a.AuthenticateContext(ctx, plays...)
					got[sc.key("batch")] = outcome(t, res, err)

					paths := []struct {
						name   string
						decide func(*core.AuthStream) (*core.Result, error)
					}{
						{"streamed", func(as *core.AuthStream) (*core.Result, error) { return decideStreamed(t, as, feedSeed) }},
						{"framed-clean", func(as *core.AuthStream) (*core.Result, error) {
							return decideFramed(t, as, arrival.WireConfig{}, feedSeed)
						}},
						{"framed-lossy", func(as *core.AuthStream) (*core.Result, error) { return decideFramed(t, as, lossy, feedSeed) }},
					}
					for _, p := range paths {
						a, plays := sc.authenticator(t, det)
						as, err := a.OpenStreamContext(ctx, plays...)
						if err != nil {
							t.Fatal(err)
						}
						res, err := p.decide(as)
						got[sc.key(p.name)] = outcome(t, res, err)
					}
				}
			}
		}
	}

	if *updateDecisions {
		if err := os.MkdirAll(filepath.Dir(decisionGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(decisionGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-recorded %s (%d outcomes)", decisionGoldenPath, len(got))
		return
	}

	data, err := os.ReadFile(decisionGoldenPath)
	if err != nil {
		t.Fatalf("read golden corpus (run with -update to record it): %v", err)
	}
	var want map[string]goldenOutcome
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: in the corpus but not produced", k)
		} else if g != w {
			t.Errorf("%s: got %+v, corpus %+v — see the re-record procedure at the top of this file", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: produced but missing from the corpus; run with -update", k)
		}
	}
}
