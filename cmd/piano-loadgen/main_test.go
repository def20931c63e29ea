package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// parseSummary decodes the first JSON value in the output (a decoder stops
// at the end of the value, so trailing report text is fine).
func parseSummary(t *testing.T, out string) Summary {
	t.Helper()
	i := strings.Index(out, "{")
	if i < 0 {
		t.Fatalf("no JSON in output:\n%s", out)
	}
	var s Summary
	if err := json.NewDecoder(strings.NewReader(out[i:])).Decode(&s); err != nil {
		t.Fatalf("summary JSON did not parse: %v\n%s", err, out)
	}
	return s
}

func TestRunClosedLoop(t *testing.T) {
	var buf bytes.Buffer
	err := runCtx(context.Background(), &buf,
		[]string{"-sessions", "6", "-concurrency", "3", "-seed", "7", "-json", "-"})
	if err != nil {
		t.Fatalf("runCtx: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"batch/closed-loop", "decision latency", "sessions/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	s := parseSummary(t, out)
	if s.Completed != 6 || s.Mode != "batch" || s.Loop != "closed" {
		t.Fatalf("summary %+v, want 6 completed batch/closed sessions", s)
	}
	if s.Latency.P50MS <= 0 || s.Latency.P99MS < s.Latency.P50MS {
		t.Fatalf("implausible latency distribution %+v", s.Latency)
	}
	if s.SessionsPerSec <= 0 {
		t.Fatalf("sessions/sec %g not positive", s.SessionsPerSec)
	}
}

// TestRunOpenLoopSheds: an open-loop run against a deliberately undersized
// service must shed — and every shed must land in the overloaded bucket,
// never "other".
func TestRunOpenLoopSheds(t *testing.T) {
	var buf bytes.Buffer
	err := runCtx(context.Background(), &buf, []string{
		"-sessions", "16", "-rate", "400", "-seed", "3",
		"-max-sessions", "1", "-queue-depth", "1", "-queue-wait", "1ms",
		"-json", "-",
	})
	if err != nil {
		t.Fatalf("runCtx: %v\n%s", err, buf.String())
	}
	out := buf.String()
	s := parseSummary(t, out)
	if s.Loop != "open" || s.OfferedRate != 400 {
		t.Fatalf("summary %+v, want an open-loop run at 400/s", s)
	}
	if s.Shed["overloaded"] == 0 {
		t.Fatalf("16 sessions at 400/s against a 1-slot service shed nothing: %+v\n%s", s, out)
	}
	if s.Shed["other"] != 0 {
		t.Fatalf("sheds leaked into the other bucket: %+v", s.Shed)
	}
	if s.Completed+s.Shed["overloaded"] != s.Sessions {
		t.Fatalf("sessions unaccounted for: %+v", s)
	}
}

// TestRunStreamWithAbandons: streaming sessions whose clients stall or
// vanish mid-feed must end typed (reaped by the watchdog), with the healthy
// remainder deciding normally — every offered session accounted for.
func TestRunStreamWithAbandons(t *testing.T) {
	var buf bytes.Buffer
	err := runCtx(context.Background(), &buf, []string{
		"-sessions", "8", "-concurrency", "4", "-stream", "-seed", "5",
		"-abandon-rate", "0.6", "-idle-timeout", "150ms",
		"-json", "-",
	})
	if err != nil {
		t.Fatalf("runCtx: %v\n%s", err, buf.String())
	}
	out := buf.String()
	s := parseSummary(t, out)
	if s.Mode != "stream" {
		t.Fatalf("mode %q, want stream", s.Mode)
	}
	shed := 0
	for cat, n := range s.Shed {
		if cat == "other" && n > 0 {
			t.Fatalf("stream sheds leaked into the other bucket: %+v", s.Shed)
		}
		shed += n
	}
	if s.Completed+shed != s.Sessions {
		t.Fatalf("sessions unaccounted for: completed %d + shed %d != %d (%+v)",
			s.Completed, shed, s.Sessions, s.Shed)
	}
	if s.Completed == 0 {
		t.Fatalf("no session survived an 0.6 abandon rate across 8 draws: %+v\n%s", s, out)
	}
}

// TestRunGridJSON shrinks the grid to a 1-core batch column at two
// concurrencies and checks the recorded report shape end to end: one cell
// per (cores, concurrency, mode).
func TestRunGridJSON(t *testing.T) {
	oldCores, oldConc, oldModes, oldReps := gridCores, gridConcurrency, gridModes, gridReps
	gridCores, gridConcurrency, gridModes, gridReps = []int{1}, []int{1, 2}, []string{"batch"}, 1
	defer func() { gridCores, gridConcurrency, gridModes, gridReps = oldCores, oldConc, oldModes, oldReps }()

	path := t.TempDir() + "/grid.json"
	var buf bytes.Buffer
	if err := runCtx(context.Background(), &buf, []string{"-grid", "-json", path}); err != nil {
		t.Fatalf("runCtx -grid: %v\n%s", err, buf.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep gridReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("grid JSON did not parse: %v", err)
	}
	if len(rep.Cells) != len(gridConcurrency) {
		t.Fatalf("grid recorded %d cells, want %d", len(rep.Cells), len(gridConcurrency))
	}
	for i, c := range rep.Cells {
		if c.Completed != c.Sessions || c.SessionsPerSec <= 0 || c.Latency.P50MS <= 0 {
			t.Fatalf("cell %d implausible: %+v", i, c)
		}
		if c.GOMAXPROCS != 1 || c.Mode != "batch" || c.Concurrency != gridConcurrency[i] {
			t.Fatalf("cell %d is not (1 core, concurrency %d, batch): %+v", i, gridConcurrency[i], c)
		}
	}
	if rep.Machine.Cores <= 0 || rep.Description == "" {
		t.Fatalf("report metadata incomplete: %+v", rep.Machine)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-sessions", "0"},
		{"-rate", "-1"},
		{"-concurrency", "0"},
		{"-stream", "-abandon-rate", "0.5"}, // abandons without a watchdog
		{"-stream", "-jitter", "1.5"},
		{"-stream", "-abandon-rate", "1.5", "-idle-timeout", "1s"},
		{"-stream", "-chunk-ms", "0"},
		{"-stream", "-retry"}, // retry only wraps batch Authenticate
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := runCtx(context.Background(), &buf, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunStreamFramedLossyWire: the -loss/-dup/-reorder/-corrupt flags
// switch streaming sessions to framed feeding over the seeded lossy wire.
// Degraded decisions and insufficient-audio refusals are first-class in
// the report — "other" must stay empty — and light loss must let at least
// one session through.
func TestRunStreamFramedLossyWire(t *testing.T) {
	var buf bytes.Buffer
	err := runCtx(context.Background(), &buf, []string{
		"-sessions", "6", "-concurrency", "2", "-stream", "-seed", "5",
		"-loss", "0.02", "-dup", "0.1", "-reorder", "0.2", "-corrupt", "0.02",
		"-json", "-",
	})
	if err != nil {
		t.Fatalf("runCtx: %v\n%s", err, buf.String())
	}
	s := parseSummary(t, buf.String())
	if s.Completed == 0 {
		t.Fatalf("light wire loss completed nothing: %+v", s)
	}
	if s.Shed["other"] != 0 {
		t.Fatalf("lossy-wire outcomes leaked into the other bucket: %+v", s.Shed)
	}
	if s.Completed+s.Shed["insufficient"]+s.Shed["canceled"] != s.Sessions {
		t.Fatalf("sessions unaccounted for: %+v", s)
	}
}

// TestRunZeroSuccessExitsNonzero: a run where every session was refused
// must fail the process, so scripts cannot mistake total refusal for a
// healthy run. Total frame loss guarantees every session resolves
// ErrInsufficientAudio.
func TestRunZeroSuccessExitsNonzero(t *testing.T) {
	var buf bytes.Buffer
	err := runCtx(context.Background(), &buf, []string{
		"-sessions", "3", "-concurrency", "2", "-stream", "-loss", "1", "-json", "-",
	})
	if err == nil {
		t.Fatalf("all-refused run exited zero:\n%s", buf.String())
	}
	s := parseSummary(t, buf.String())
	if s.Completed != 0 || s.Shed["insufficient"] != s.Sessions {
		t.Fatalf("total loss should refuse every session typed: %+v", s)
	}
}

// TestRunRejectsWireFlagsWithoutStream: the wire knobs model the framed
// transport and are meaningless against batch Authenticate.
func TestRunRejectsWireFlagsWithoutStream(t *testing.T) {
	var buf bytes.Buffer
	if err := runCtx(context.Background(), &buf, []string{"-sessions", "2", "-loss", "0.1"}); err == nil {
		t.Fatal("-loss without -stream accepted")
	}
	if err := runCtx(context.Background(), &buf, []string{"-sessions", "2", "-stream", "-corrupt", "1.5"}); err == nil {
		t.Fatal("-corrupt 1.5 accepted")
	}
}

// TestRunCanceledContext: a pre-canceled run must report its sessions as
// canceled, not hang or crash.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := runCtx(ctx, &buf, []string{"-sessions", "4", "-rate", "50", "-json", "-"})
	if err != nil {
		t.Fatalf("runCtx: %v\n%s", err, buf.String())
	}
	out := buf.String()
	s := parseSummary(t, out)
	if s.Completed != 0 || s.Shed["canceled"] != s.Sessions {
		t.Fatalf("pre-canceled run: %+v", s)
	}
	if !strings.Contains(out, "interrupted") {
		t.Fatalf("output missing the interruption note:\n%s", out)
	}
}

// TestPercentileNearestRank pins the percentile math loadgen reports.
func TestPercentileNearestRank(t *testing.T) {
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}} {
		if got := percentile(lats, tc.q); got != tc.want {
			t.Errorf("p%g of 1..100 ms = %g, want %g", tc.q*100, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %g, want 0", got)
	}
	if got := percentile(lats[:1], 0.99); got != 1 {
		t.Errorf("single-sample p99 = %g, want 1", got)
	}
}
