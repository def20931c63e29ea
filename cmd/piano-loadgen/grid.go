package main

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"github.com/acoustic-auth/piano"
	"github.com/acoustic-auth/piano/internal/client"
)

// The scaling grid: every combination of simulated core count (GOMAXPROCS,
// set in-process per cell), closed-loop concurrency, and session mode
// (batch Authenticate vs streaming OpenSession). Closed loop keeps
// every cell at its saturation throughput for that concurrency, which is
// the quantity the scaling curve is about.
var (
	gridCores       = []int{1, 2, 4, 8}
	gridConcurrency = []int{1, 4, 16}
	gridModes       = []string{"batch", "stream"}
	// gridReps runs each cell this many times (fresh service per rep) and
	// records the best — the same outlier-damping the repo's other BENCH
	// records apply, since a shared box's scheduler can hand any single rep
	// an unlucky slice.
	gridReps = 2
)

// gridMachine mirrors the other BENCH_*.json files' machine stanza.
type gridMachine struct {
	Cores  int    `json:"cores"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	Go     string `json:"go"`
}

// gridReport is the BENCH_loadgen.json shape: one Summary per cell.
type gridReport struct {
	Description string      `json:"description"`
	Machine     gridMachine `json:"machine"`
	Command     string      `json:"command"`
	Cells       []Summary   `json:"cells"`
}

const gridDescription = "Multi-core load-harness scaling record. Each cell drives one freshly built piano.Service with a closed-loop piano-loadgen workload (every worker opens its next session the moment the previous resolves — saturation throughput for that concurrency) and reports achieved sessions/sec plus p50/p95/p99 decision latency. Grid: GOMAXPROCS {1,2,4,8} (set in-process; cells above the machine's hardware core count measure scheduler behavior, not parallel speedup — compare 'machine.cores') × closed-loop concurrency {1,4,16} × mode {batch Authenticate, streaming OpenSession fed 20 ms chunks flat-out}. Workers defaults to GOMAXPROCS per cell, so the worker budget tracks the simulated core count; MaxSessions is set to the cell's concurrency so admission never queues. Each cell is run twice against a fresh service and the better run is recorded, damping shared-box scheduler noise. Session workload: device pairs staggered 0.3-1.65 m around the 1 m threshold, deterministic per-session seeds. See PERFORMANCE.md ('the first real scaling curve') for the analysis."

// runGrid records the scaling matrix: cores × {batch, stream} ×
// concurrency, each cell a fresh service driven closed-loop to saturation.
func runGrid(ctx context.Context, w io.Writer, jsonPath string) error {
	if jsonPath == "" {
		jsonPath = "BENCH_loadgen.json"
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	report := gridReport{
		Description: gridDescription,
		Machine: gridMachine{
			Cores:  runtime.NumCPU(),
			GOOS:   runtime.GOOS,
			GOARCH: runtime.GOARCH,
			Go:     runtime.Version(),
		},
		Command: "go run ./cmd/piano-loadgen -grid -json BENCH_loadgen.json (make bench-loadgen)",
	}
	fmt.Fprintf(w, "piano-loadgen -grid: %d cells on a %d-core box (GOMAXPROCS set per cell)\n",
		len(gridCores)*len(gridConcurrency)*len(gridModes), report.Machine.Cores)

	for _, cores := range gridCores {
		runtime.GOMAXPROCS(cores)
		for _, mode := range gridModes {
			for _, conc := range gridConcurrency {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				// 4× the concurrency (min 16) keeps every cell long
				// enough that one scheduler hiccup can't move the mean.
				sessions := 4 * conc
				if sessions < 16 {
					sessions = 16
				}
				o := opts{
					sessions:    sessions,
					concurrency: conc,
					stream:      mode == "stream",
					seed:        1,
					workers:     cores, // Workers 0 = GOMAXPROCS, resolved per cell
					chunkMS:     20,
				}
				var s Summary
				for rep := 0; rep < gridReps; rep++ {
					cfg := piano.DefaultServiceConfig()
					cfg.MaxSessions = conc
					svc, err := piano.NewService(cfg)
					if err != nil {
						return err
					}
					r := runLoad(ctx, svc, client.Workload(sessions, 1), o)
					svc.Close()
					if rep == 0 || r.SessionsPerSec > s.SessionsPerSec {
						s = r
					}
				}
				report.Cells = append(report.Cells, s)
				fmt.Fprintf(w, "  %-6s cores=%d conc=%-2d: %7.2f sessions/s, p50 %6.1f ms, p99 %6.1f ms\n",
					mode, cores, conc, s.SessionsPerSec, s.Latency.P50MS, s.Latency.P99MS)
			}
		}
	}
	if err := writeJSON(w, jsonPath, report); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %s (%d cells)\n", jsonPath, len(report.Cells))
	return nil
}
