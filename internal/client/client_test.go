package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/acoustic-auth/piano"
	"github.com/acoustic-auth/piano/internal/arrival"
)

// requests picks device pairs at 0.3, 0.9 and 1.5 m, either side of the
// 1 m threshold, each with its own seed.
func requests() []piano.AuthRequest {
	all := Workload(9, 1)
	return []piano.AuthRequest{all[0], all[4], all[8]}
}

func newService(t *testing.T) *piano.Service {
	t.Helper()
	cfg := piano.DefaultServiceConfig()
	cfg.Workers = 2
	svc, err := piano.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// driven is one session a test drove.
type driven struct {
	t    *testing.T
	svc  *piano.Service
	req  piano.AuthRequest
	sess *piano.AuthSession
	rep  Report
	err  error
}

func (d driven) String() string { return fmt.Sprintf("seed %d", d.req.Seed) }

// likeBatch fails unless got decides exactly what batch Authenticate
// decides for the same request.
func (d driven) likeBatch(got *piano.Decision) {
	d.t.Helper()
	want, err := d.svc.Authenticate(d.req)
	if err != nil {
		d.t.Fatalf("%v: batch: %v", d, err)
	}
	if got.Granted != want.Granted || got.Reason != want.Reason ||
		math.Float64bits(got.DistanceM) != math.Float64bits(want.DistanceM) {
		d.t.Fatalf("%v: driven decision %+v differs from batch %+v", d, got, want)
	}
}

// driveAll drives one fresh session per request on s and checks each.
func driveAll(t *testing.T, s Schedule, check func(d driven)) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	svc := newService(t)
	for _, req := range requests() {
		d := driven{t: t, svc: svc, req: req}
		var err error
		if d.sess, err = svc.OpenSession(req); err != nil {
			t.Fatalf("%v: open: %v", d, err)
		}
		d.rep, d.err = Drive(context.Background(), d.sess, req.Seed, s)
		check(d)
		d.sess.Close()
	}
}

// decidedLikeBatch is the check for loss-free schedules.
func decidedLikeBatch(t *testing.T, d driven) {
	t.Helper()
	if d.err != nil {
		t.Fatalf("%v: %v", d, d.err)
	}
	if d.rep.Decision == nil || d.rep.Decision.Degraded != nil || d.rep.Gone != arrival.Done {
		t.Fatalf("%v: want a clean decision, got %+v", d, d.rep)
	}
	d.likeBatch(d.rep.Decision)
}

// TestDriveJitteredChunksMatchBatch: ordered chunks of jittered size with
// underrun bursts, paced, decide bit-identically to batch Authenticate.
func TestDriveJitteredChunksMatchBatch(t *testing.T) {
	s := Schedule{
		Arrival: arrival.Config{ChunkMS: 40, Jitter: 0.4, UnderrunProb: 0.3},
		Pace:    100,
	}
	underruns := 0
	driveAll(t, s, func(d driven) {
		decidedLikeBatch(t, d)
		underruns += d.rep.Underruns
	})
	if underruns == 0 {
		t.Fatal("no underrun burst was fed; the schedule does not exercise them")
	}
}

// TestDriveCleanWireMatchesBatch: frames duplicated and reordered, but
// none lost or corrupted, are reassembled into the batch decision.
func TestDriveCleanWireMatchesBatch(t *testing.T) {
	s := Schedule{
		Arrival: arrival.Config{ChunkMS: 40, Jitter: 0.2},
		Wire:    &arrival.WireConfig{DupProb: 0.3, ReorderProb: 0.4},
	}
	driveAll(t, s, func(d driven) { decidedLikeBatch(t, d) })
}

// TestDriveVanishedClientGoesBack: a client whose schedule stalls or
// abandons comes back to the caller with Report.Gone set, having fed
// nothing past that event, and its session is still open — over plain
// chunks and over a wire (which duplicates frames but keeps their order,
// so the session's frontier is the furthest frame sent). A client that
// crossed the decision horizon first decides like batch instead.
func TestDriveVanishedClientGoesBack(t *testing.T) {
	for _, tc := range []struct {
		fate arrival.Kind
		wire *arrival.WireConfig
	}{
		{arrival.Stall, nil},
		{arrival.Abandon, nil},
		{arrival.Stall, &arrival.WireConfig{DupProb: 0.3}},
		{arrival.Abandon, &arrival.WireConfig{DupProb: 0.3}},
	} {
		fate := tc.fate
		cfg := arrival.Config{ChunkMS: 40, Jitter: 0.2}
		if fate == arrival.Stall {
			cfg.StallProb = 1
		} else {
			cfg.AbandonProb = 1
		}
		gone := 0
		driveAll(t, Schedule{Arrival: cfg, Wire: tc.wire}, func(d driven) {
			if d.err != nil {
				t.Fatalf("%v: %v", d, d.err)
			}
			if d.rep.Decision != nil {
				d.likeBatch(d.rep.Decision)
				return
			}
			gone++
			if d.rep.Gone != fate {
				t.Fatalf("%v: Gone = %v, want %v", d, d.rep.Gone, fate)
			}
			hit := false
			for ri, role := range roles {
				limit := feedBeforeFate(t, cfg, d.req.Seed*2+int64(ri), len(d.sess.Recording(role)))
				fed := d.rep.Fed[ri]
				if fed > limit {
					t.Fatalf("%v: role %d fed %d samples, past its fate at %d", d, ri, fed, limit)
				}
				hit = hit || fed == limit
				if got := d.sess.Fed(role); got != fed {
					t.Fatalf("%v: role %d: session holds %d samples, report says %d", d, ri, got, fed)
				}
			}
			if !hit {
				t.Fatalf("%v: vanished before either role reached its fate: fed %v", d, d.rep.Fed)
			}
			if _, _, err := d.sess.TryResult(); err != nil {
				t.Fatalf("%v: session no longer open after the client vanished: %v", d, err)
			}
		})
		if gone == 0 {
			t.Fatalf("%v (wire %v): every client decided before its fate; nothing vanished", fate, tc.wire != nil)
		}
	}
}

// feedBeforeFate replays one role's arrival schedule and returns the
// samples fed before its stall or abandon event.
func feedBeforeFate(t *testing.T, cfg arrival.Config, seed int64, total int) int {
	t.Helper()
	chunks, _, err := arrival.Chunks(cfg, seed, total)
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for _, n := range chunks {
		fed += n
	}
	return fed
}

// TestDriveCountsCorruptFrames: every damaged frame the session rejects
// is counted in the report, matching the session's own counter. With
// every frame damaged the session refuses typed; with a few damaged it
// decides like batch, decides degraded, or refuses.
func TestDriveCountsCorruptFrames(t *testing.T) {
	for _, p := range []float64{1, 0.1} {
		s := Schedule{
			Arrival: arrival.Config{ChunkMS: 20},
			Wire:    &arrival.WireConfig{CorruptProb: p},
		}
		corrupt := 0
		driveAll(t, s, func(d driven) {
			stats := d.sess.FrameStats(piano.RoleAuth).Corrupt + d.sess.FrameStats(piano.RoleVouch).Corrupt
			if d.rep.Corrupt != stats {
				t.Fatalf("p=%g %v: report counts %d corrupt frames, session rejected %d", p, d, d.rep.Corrupt, stats)
			}
			corrupt += d.rep.Corrupt
			switch {
			case errors.Is(d.err, piano.ErrInsufficientAudio):
			case d.err != nil:
				t.Fatalf("p=%g %v: %v", p, d, d.err)
			case p == 1:
				t.Fatalf("p=%g %v: decided %+v with every frame damaged", p, d, d.rep.Decision)
			case d.rep.Decision.Degraded == nil:
				d.likeBatch(d.rep.Decision)
			}
			if p == 1 && d.rep.Fed != [2]int{} {
				t.Fatalf("p=%g %v: damaged frames were accepted: fed %v", p, d, d.rep.Fed)
			}
		})
		if corrupt == 0 {
			t.Fatalf("corrupt p=%g: no corrupt frame was sent", p)
		}
	}
}

// TestScheduleValidate: out-of-range knobs are rejected before any
// session opens.
func TestScheduleValidate(t *testing.T) {
	ok := Schedule{Arrival: arrival.Config{ChunkMS: 20}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := []Schedule{
		{Arrival: arrival.Config{}},
		{Arrival: arrival.Config{ChunkMS: 20}, Pace: -1},
		{Arrival: arrival.Config{ChunkMS: 20, Jitter: 1.5}},
		{Arrival: arrival.Config{ChunkMS: 20, StallProb: 0.75, AbandonProb: 0.75}},
		{Arrival: arrival.Config{ChunkMS: 20}, Wire: &arrival.WireConfig{LossProb: 1.5}},
		{Arrival: arrival.Config{ChunkMS: 20}, Wire: &arrival.WireConfig{DupProb: -0.1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schedule %d %+v accepted", i, s)
		}
	}
}

// TestCategoryCoversTypedErrors is the shed-accounting contract: every
// typed terminal error a piano.Service can hand a client maps to exactly
// one report category — wrapped or bare — and "other" is reserved for
// errors the harness has never heard of. A known error landing in "other"
// is a reporting bug, not a new failure mode.
func TestCategoryCoversTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"overloaded", piano.ErrOverloaded, "overloaded"},
		{"overloaded wrapped by retry exhaustion",
			fmt.Errorf("piano: gave up after 4 attempts: %w", piano.ErrOverloaded), "overloaded"},
		{"closed", piano.ErrClosed, "closed"},
		{"stalled", piano.ErrSessionStalled, "stalled"},
		{"expired", piano.ErrSessionExpired, "expired"},
		{"internal", piano.ErrInternal, "internal"},
		{"internal wrapped", fmt.Errorf("piano: %w", piano.ErrInternal), "internal"},
		{"insufficient audio", piano.ErrInsufficientAudio, "insufficient"},
		{"insufficient audio wrapped",
			fmt.Errorf("core: streaming detect (auth role): %w", piano.ErrInsufficientAudio), "insufficient"},
		{"context canceled", context.Canceled, "canceled"},
		{"context deadline", context.DeadlineExceeded, "canceled"},
		{"unknown", errors.New("mystery"), "other"},
	}
	valid := map[string]bool{}
	for _, cat := range Categories {
		valid[cat] = true
	}
	for _, tc := range cases {
		got := Category(tc.err)
		if got != tc.want {
			t.Errorf("%s: category = %q, want %q", tc.name, got, tc.want)
		}
		if !valid[got] {
			t.Errorf("%s: category %q is not in the report order list", tc.name, got)
		}
		if tc.want != "other" && got == "other" {
			t.Errorf("%s: known typed error leaked into the other bucket", tc.name)
		}
	}
	// Both reap errors must match the category sentinel — the report's
	// stalled/expired split refines ErrSessionReaped, it does not fork it.
	for _, err := range []error{piano.ErrSessionStalled, piano.ErrSessionExpired} {
		if !errors.Is(err, piano.ErrSessionReaped) {
			t.Errorf("%v does not match ErrSessionReaped", err)
		}
	}
}
