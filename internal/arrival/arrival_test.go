package arrival

import (
	"testing"
	"time"
)

// collect drains a fresh Source into its full event sequence (terminal
// event included) for a total-sample feed.
func collect(t *testing.T, cfg Config, seed int64, total int) []Event {
	t.Helper()
	src, err := New(cfg, seed)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var evs []Event
	fed := 0
	for {
		ev := src.Next(fed, total)
		evs = append(evs, ev)
		if ev.Kind != Chunk && ev.Kind != Underrun {
			return evs
		}
		fed += ev.N
		if len(evs) > total+1 {
			t.Fatalf("runaway schedule: %d events for %d samples", len(evs), total)
		}
	}
}

func TestArrivalValidation(t *testing.T) {
	bad := []Config{
		{SampleRate: -1},
		{ChunkMS: -5},
		{Jitter: -0.1},
		{Jitter: 1.0},
		{UnderrunProb: 1.5},
		{UnderrunProb: -0.5},
		{StallProb: -0.2},
		{AbandonProb: 2},
		{StallProb: 0.6, AbandonProb: 0.6},
		{UnderrunMS: [2]int{-5, 10}},
		{UnderrunMS: [2]int{100, 60}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("config %d %+v: want validation error, got nil", i, cfg)
		}
	}
	// Zero value is valid and defaults to 20 ms chunks at 44.1 kHz.
	src, err := New(Config{}, 1)
	if err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	ev := src.Next(0, 100000)
	if ev.Kind != Chunk {
		t.Fatalf("zero config first event = %v, want chunk", ev.Kind)
	}
	if want := 882; ev.N != want { // 44100 * 20ms
		t.Errorf("default chunk size = %d, want %d", ev.N, want)
	}
	if ev.Gap != 20*time.Millisecond {
		t.Errorf("default gap = %v, want 20ms", ev.Gap)
	}
}

// TestArrivalDeterminism is the replay contract: the same (Config, seed,
// total) produces the identical event sequence — sizes, gaps, and failure
// events alike — across independent Sources.
func TestArrivalDeterminism(t *testing.T) {
	cfg := Config{
		Jitter:       0.35,
		UnderrunProb: 0.2,
		StallProb:    0.15,
		AbandonProb:  0.15,
	}
	const total = 120000
	for seed := int64(1); seed <= 25; seed++ {
		a := collect(t, cfg, seed, total)
		b := collect(t, cfg, seed, total)
		if len(a) != len(b) {
			t.Fatalf("seed %d: replay lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d event %d: %+v vs %+v", seed, i, a[i], b[i])
			}
		}
	}
	// Different seeds must actually differ (jitter is live).
	a := collect(t, cfg, 1, total)
	b := collect(t, cfg, 2, total)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical schedules; model is not seed-sensitive")
	}
}

// TestArrivalPartition pins the delivery invariants: a healthy client's
// chunks partition the recording exactly (sum == total, every chunk ≥ 1),
// and underruns lengthen gaps rather than drop audio.
func TestArrivalPartition(t *testing.T) {
	cfg := Config{Jitter: 0.5, UnderrunProb: 0.3}
	const total = 250000
	for seed := int64(1); seed <= 25; seed++ {
		chunks, _, err := Chunks(cfg, seed, total)
		if err != nil {
			t.Fatalf("Chunks: %v", err)
		}
		sum := 0
		for i, n := range chunks {
			if n < 1 {
				t.Fatalf("seed %d chunk %d: size %d < 1", seed, i, n)
			}
			sum += n
		}
		if sum != total {
			t.Fatalf("seed %d: chunks sum to %d, want %d", seed, sum, total)
		}
	}
}

// TestArrivalUnderrunShape verifies an underrun event carries both the
// longer gap and the backlog samples, relative to the jitter-free nominal
// chunk.
func TestArrivalUnderrunShape(t *testing.T) {
	cfg := Config{UnderrunProb: 1, UnderrunMS: [2]int{100, 100}}
	src, err := New(cfg, 7)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ev := src.Next(0, 1<<30)
	if ev.Kind != Underrun {
		t.Fatalf("kind = %v, want underrun", ev.Kind)
	}
	// Nominal: 882 samples / 20 ms. Underrun adds exactly 100 ms → 4410
	// samples of backlog and 100 ms of extra gap.
	if want := 882 + 4410; ev.N != want {
		t.Errorf("underrun N = %d, want %d", ev.N, want)
	}
	if want := 120 * time.Millisecond; ev.Gap != want {
		t.Errorf("underrun gap = %v, want %v", ev.Gap, want)
	}
}

// TestArrivalFates checks the client-failure model: with StallProb or
// AbandonProb at 1 the schedule ends in that terminal event strictly
// mid-feed, the terminal event is sticky, and with both at 0 every
// schedule runs to Done. Chunks reports the same terminal kind after the
// same deliveries.
func TestArrivalFates(t *testing.T) {
	const total = 120000
	for _, tc := range []struct {
		name string
		cfg  Config
		want Kind
	}{
		{"stall", Config{StallProb: 1}, Stall},
		{"abandon", Config{AbandonProb: 1}, Abandon},
		{"healthy", Config{}, Done},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				evs := collect(t, tc.cfg, seed, total)
				last := evs[len(evs)-1]
				if last.Kind != tc.want {
					t.Fatalf("seed %d: terminal = %v, want %v", seed, last.Kind, tc.want)
				}
				chunks, kind, err := Chunks(tc.cfg, seed, total)
				if err != nil || kind != tc.want || len(chunks) != len(evs)-1 {
					t.Fatalf("seed %d: Chunks = %d chunks ending %v (err %v), want %d ending %v",
						seed, len(chunks), kind, err, len(evs)-1, tc.want)
				}
				fed := 0
				for _, ev := range evs[:len(evs)-1] {
					fed += ev.N
				}
				if tc.want == Done {
					if fed != total {
						t.Fatalf("seed %d: healthy client fed %d of %d", seed, fed, total)
					}
					continue
				}
				// Failures fire mid-feed: some audio delivered, not all.
				if fed <= 0 || fed >= total {
					t.Fatalf("seed %d: %v after %d of %d samples, want strictly mid-feed", seed, tc.want, fed, total)
				}
				// Terminal events are sticky.
				src, _ := New(tc.cfg, seed)
				for f := 0; f < total; {
					ev := src.Next(f, total)
					if ev.Kind != Chunk && ev.Kind != Underrun {
						for i := 0; i < 3; i++ {
							if again := src.Next(f, total); again.Kind != ev.Kind {
								t.Fatalf("seed %d: terminal %v not sticky, got %v", seed, ev.Kind, again.Kind)
							}
						}
						break
					}
					f += ev.N
				}
			}
		})
	}
}

// TestArrivalKindString keeps the report labels stable.
func TestArrivalKindString(t *testing.T) {
	want := map[Kind]string{
		Chunk:    "chunk",
		Underrun: "underrun",
		Stall:    "stall",
		Abandon:  "abandon",
		Done:     "done",
		Kind(42): "arrival.Kind(42)",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, s)
		}
	}
}
