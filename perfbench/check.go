package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"github.com/acoustic-auth/piano"
)

// referenceJSON pins every pool request's outcome for the reference seeds,
// recorded by `perfbench --record-reference`: the batch decision (which a
// clean stream must equal bit for bit) and the stream-lossy outcome.
//
//go:embed reference.json
var referenceJSON []byte

// referenceSeeds are the seeds the reference covers: 0 through 20.
const referenceSeeds = 21

type referenceFile struct {
	Pool  int                `json:"pool"`
	Seeds map[string]seedRef `json:"seeds"`
}

// seedRef holds one seed's outcomes, indexed by pool position, in
// outcome.String form.
type seedRef struct {
	Batch []string `json:"batch"`
	Lossy []string `json:"lossy"`
}

// loadReference parses the reference and returns the seed's entry, or nil
// when the seed has none.
func loadReference(seed int64) (*seedRef, error) {
	var f referenceFile
	if err := json.Unmarshal(referenceJSON, &f); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if f.Pool != poolSize {
		return nil, fmt.Errorf("reference: recorded for a pool of %d requests, the benchmark uses %d", f.Pool, poolSize)
	}
	ref, ok := f.Seeds[strconv.FormatInt(seed, 10)]
	if !ok {
		return nil, nil
	}
	if len(ref.Batch) != poolSize || len(ref.Lossy) != poolSize {
		return nil, fmt.Errorf("reference: seed %d has %d/%d outcomes, want %d", seed, len(ref.Batch), len(ref.Lossy), poolSize)
	}
	return &ref, nil
}

// checkDecisions counts the sessions whose outcome is wrong, and says what
// they were checked against. With a reference for the seed, every
// session must equal it. Otherwise each pool request's batch decision is
// computed now, outside the timed phases, and every batch or clean stream
// outcome must equal it; a degraded or refused stream-lossy outcome has no
// batch counterpart, so it must equal the first outcome of the same
// request in this run (its wire schedule replays exactly). Failed
// sessions are counted as failures elsewhere, not here.
func checkDecisions(ctx context.Context, e *env, workload string, results []result) (wrong int, by string, err error) {
	lossy := workload == "stream-lossy"
	if e.ref != nil {
		want := e.ref.Batch
		if lossy {
			want = e.ref.Lossy
		}
		for _, r := range results {
			if r.err == nil && r.out.String() != want[r.idx] {
				wrong++
			}
		}
		return wrong, "the recorded reference", nil
	}
	batch, err := poolOutcomes(ctx, e, (*client).batch)
	if err != nil {
		return 0, "", err
	}
	first := map[int]string{}
	for _, r := range results {
		if r.err != nil {
			continue
		}
		got := r.out.String()
		if f, ok := first[r.idx]; ok {
			if got != f {
				wrong++
			}
			continue
		}
		first[r.idx] = got
		if lossy && (!r.out.decided() || r.out.degraded()) {
			continue
		}
		if got != batch[r.idx] {
			wrong++
		}
	}
	return wrong, "batch decisions computed after the timed phase", nil
}

// poolOutcomes runs every pool request once through run, on the
// closed-loop clients, and returns the outcomes by pool index.
func poolOutcomes(ctx context.Context, e *env, run sessionFunc) ([]string, error) {
	out := make([]string, poolSize)
	for _, r := range runPhase(ctx, e, run, 0, poolSize, false).results {
		if r.err != nil {
			return nil, fmt.Errorf("request %d: %w", r.idx, r.err)
		}
		out[r.idx] = r.out.String()
	}
	return out, ctx.Err()
}

// recordReference decides every reference seed's pool through batch,
// stream-closed and stream-lossy sessions, checks that each clean stream
// decision equals its batch decision bit for bit, and writes the file.
func recordReference(ctx context.Context, path string) error {
	svc, err := piano.NewService(piano.DefaultServiceConfig())
	if err != nil {
		return err
	}
	defer svc.Close()
	f := referenceFile{Pool: poolSize, Seeds: map[string]seedRef{}}
	for seed := int64(0); seed < referenceSeeds; seed++ {
		e := &env{svc: svc, pool: requestPool(seed)}
		var outs [3][]string
		for i, run := range []sessionFunc{(*client).batch, (*client).stream, (*client).lossy} {
			if outs[i], err = poolOutcomes(ctx, e, run); err != nil {
				return fmt.Errorf("seed %d: %w", seed, err)
			}
		}
		for i := range outs[0] {
			if outs[1][i] != outs[0][i] {
				return fmt.Errorf("seed %d request %d: stream decided %q, batch %q", seed, i, outs[1][i], outs[0][i])
			}
		}
		f.Seeds[strconv.FormatInt(seed, 10)] = seedRef{Batch: outs[0], Lossy: outs[2]}
	}
	buf, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
