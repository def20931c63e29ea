// Command perfbench is the PIANO service benchmark. It drives one
// piano.Service in-process from closed-loop clients, checks every decision,
// and prints each metric by name and unit, ending with one JSON result
// line. Run it from the repository root with
//
//	bash perfbench/run.sh --workload stream-closed --seed 1 --seconds 20 --trace 0
//
// Workloads (one seeded request mix, see requestPool):
//
//   - batch-closed: Service.AuthenticateContext back to back.
//   - stream-closed: OpenSessionContext, then in-order ~20 ms chunks of
//     both roles with a TryResult after every round.
//   - stream-lossy: the same sessions as CRC frames over a seeded lossy
//     wire (FeedFrame, FinishFeed).
//
// --trace 0 prints the end-to-end metrics of one untraced timed phase.
// --trace 1 alternates untraced and traced quarters, times every public
// call into the service from this side of the API, writes the spans as
// JSON lines, and prints the per-layer metrics derived from them.
//
// Every session's outcome is checked, against reference.json for the
// seeds it covers and otherwise against batch decisions computed after
// the timed phase; any mismatch fails the run. After a change that is
// meant to alter decisions, re-record the reference with
//
//	bash perfbench/run.sh --record-reference perfbench/reference.json
//
// perfbench/spread.py runs the benchmark over several seeds and reports
// each metric's run-to-run spread against its bound in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	o := options{setups: 3, warmups: 2, split: 24}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spans := fs.String("spans", "", "span output file for --trace 1 (default .bench_build/perfbench/spans-<workload>-<seed>.jsonl)")
	record := fs.String("record-reference", "", "decide every reference seed's requests and write the reference file to this path, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordReference(ctx, *record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if _, ok := workloads[o.workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	o.duration = time.Duration(*seconds * float64(time.Second))
	o.trace = *trace == 1
	if o.trace {
		o.spans = *spans
		if o.spans == "" {
			o.spans = fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.jsonl", o.workload, o.seed)
		}
	}

	rep, err := measure(ctx, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printReport(stdout, o, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.wrong > 0 {
		fmt.Fprintf(stderr, "perfbench: %d wrong decisions\n", rep.wrong)
		return 1
	}
	return 0
}

// printReport writes the human-readable lines and, last, the JSON result.
func printReport(w io.Writer, o options, rep *report) error {
	phases, metrics := rep.untraced, endToEnd(rep)
	if o.trace {
		phases, metrics = rep.traced, perLayer(rep)
	}
	t := tally(phases)
	fmt.Fprintf(w, "perfbench %s seed %d: %d clients, GOMAXPROCS %d, %s, %s timed\n",
		o.workload, o.seed, clients, runtime.GOMAXPROCS(0), runtime.Version(), o.duration)
	fmt.Fprintf(w, "sessions: %d attempted, %d decided, %d refused, %d failed\n", t.attempted, t.decided, t.refused, t.failed)
	fmt.Fprintf(w, "wrong_decisions %d count (checked against %s)\n", rep.wrong, rep.checkedBy)
	if !o.trace {
		lat, lag := tail(t.latencyMS), tail(t.lagMS)
		fmt.Fprintf(w, "latency_tail_ms is p%.2f of %d samples; decision_lag_tail_ms is p%.2f of %d samples\n", lat.pct, lat.n, lag.pct, lag.n)
		fmt.Fprintf(w, "setup_s is the median of %d set-ups: %v\n", len(rep.setupS), rep.setupS)
	} else {
		fmt.Fprintf(w, "batch_split: %d requests replayed\n", len(rep.split.batchMS))
		if o.spans != "" {
			fmt.Fprintf(w, "spans written to %s\n", o.spans)
		}
	}
	out := map[string]any{}
	for _, m := range metrics {
		fmt.Fprintf(w, "%-42s %14.4f %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.wrong == 0,
		"attempted": t.attempted,
		"failed":    t.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
