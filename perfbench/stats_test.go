package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/acoustic-auth/piano"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so tail must sort
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		value float64
		pct   float64
	}{
		{n: 1000, value: 990, pct: 99},
		{n: 200, value: 190, pct: 95},
		{n: 100, value: 90, pct: 90},
		// piano-loadgen's "p99" over 16 samples is the maximum; with
		// fewer than 20 samples there is no tail, so the median stands in.
		{n: 16, value: 8, pct: 50},
		{n: 20, value: 10, pct: 50},
		{n: 1, value: 1, pct: 50},
	} {
		q := tail(ramp(tc.n))
		beyond := 0
		for _, x := range ramp(tc.n) {
			if x > q.value {
				beyond++
			}
		}
		if q.value != tc.value || q.pct != tc.pct || q.n != tc.n {
			t.Errorf("tail of %d samples = %+v, want value %v at p%v", tc.n, q, tc.value, tc.pct)
		}
		if tc.n >= 2*tailBeyond && beyond != tailBeyond {
			t.Errorf("tail of %d samples leaves %d beyond it, want %d", tc.n, beyond, tailBeyond)
		}
	}
	if m := median(ramp(5)); m.value != 3 {
		t.Errorf("median of 1..5 = %v, want 3", m.value)
	}
}

func TestRefusalsAndShedsCountAsNotDecided(t *testing.T) {
	ok := result{start: 0, end: 10e6, lagStart: 8e6}
	p := phase{wall: 2e9, results: []result{
		ok, ok, ok,
		{out: outcome{refusal: "insufficient"}, end: 50e6},
		{err: fmt.Errorf("piano: %w", piano.ErrOverloaded), end: 1e6},
	}}
	tl := tally([]phase{p})
	if tl.attempted != 5 || tl.decided != 3 || tl.refused != 1 || tl.failed != 1 {
		t.Fatalf("tally = %+v, want 5 attempted, 3 decided, 1 refused, 1 failed", tl)
	}
	if tl.shed["insufficient"] != 1 || tl.shed["overloaded"] != 1 {
		t.Errorf("shed = %v, want one insufficient and one overloaded", tl.shed)
	}
	if len(tl.latencyMS) != 3 || tl.latencyMS[0] != 10 || tl.lagMS[0] != 2 {
		t.Errorf("latencies %v, lags %v: want only the 3 decided sessions, 10 ms and 2 ms each", tl.latencyMS, tl.lagMS)
	}
	// The refused and shed sessions spent wall time but decided nothing.
	if got := sessionsPerS([]phase{p}); got != 1.5 {
		t.Errorf("sessions_per_s = %v, want 3 decided / 2 s = 1.5", got)
	}
	rep := &report{untraced: []phase{p}, setupS: []float64{1}}
	for _, m := range endToEnd(rep) {
		if m.name == "decided_share" && m.value != 0.6 {
			t.Errorf("decided_share = %v, want 3/5", m.value)
		}
	}
}

func TestWrongDecisionsAreCounted(t *testing.T) {
	right := outcome{granted: true, distBits: 0x3fe0000000000000}
	ref := &seedRef{Batch: make([]string, poolSize), Lossy: make([]string, poolSize)}
	ref.Batch[3] = right.String()
	ref.Lossy[3] = outcome{refusal: "insufficient"}.String()
	e := &env{ref: ref}
	flipped := right
	flipped.distBits++
	results := []result{{idx: 3, out: right}, {idx: 3, out: flipped}, {idx: 3, err: piano.ErrOverloaded}}
	if wrong, _, err := checkDecisions(context.Background(), e, "batch-closed", results); err != nil || wrong != 1 {
		t.Errorf("batch-closed: %d wrong (%v), want 1: a one-ulp distance change", wrong, err)
	}
	if wrong, _, err := checkDecisions(context.Background(), e, "stream-lossy", results); err != nil || wrong != 2 {
		t.Errorf("stream-lossy: %d wrong (%v), want 2: the reference refuses", wrong, err)
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs one session per phase of every workload, untraced on a
// reference seed and traced on a seed without a reference, and checks the
// result line carries exactly BENCHMARK.json's metrics with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range bf.EndToEnd {
				if !trace {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range bf.PerLayer {
				if trace {
					want[m.Name] = m.Unit
				}
			}
			name := fmt.Sprintf("%s/trace=%v", w.Name, trace)
			t.Run(name, func(t *testing.T) {
				o := options{workload: w.Name, seed: 1, trace: trace, setups: 1, limit: 1, split: 1}
				if trace {
					o.seed = 1 << 40
					o.spans = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				rep, err := measure(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := printReport(&out, o, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				for name, unit := range want {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}
