package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/acoustic-auth/piano"
)

// split decomposes batch Authenticate into the streaming calls that do the
// same work: OpenSession (Steps I–III), one whole-recording Feed per role
// (the coarse scan) and one TryResult (reduction, fine scan, Steps V–VI).
// residual is batch minus the three parts, per request.
type split struct {
	openMS, scanMS, reduceMS, batchMS, residualMS []float64
	wrong                                         int
}

// batchSplit replays the first sample pool requests that have audio (those
// beyond Bluetooth range have none) one at a time, each both ways, the
// order alternating so neither way always runs on warmer caches. The
// stream decision must equal the batch one; a mismatch counts as wrong.
func batchSplit(ctx context.Context, e *env, sample int) (split, error) {
	var sp split
	c := &client{svc: e.svc, epoch: time.Now()}
	for i := 0; i < len(e.pool) && len(sp.batchMS) < sample; i++ {
		req := e.pool[i]
		var b result
		var parts [3]float64
		var streamOut string
		var hasAudio bool
		var err error
		for pass := 0; pass < 2; pass++ {
			if (pass == 0) == (i%2 == 0) {
				if b = c.batch(ctx, i, req); b.err != nil {
					return sp, fmt.Errorf("request %d: %w", i, b.err)
				}
				continue
			}
			if parts, streamOut, hasAudio, err = c.wholeFeed(ctx, req); err != nil {
				return sp, fmt.Errorf("request %d: %w", i, err)
			}
		}
		if !hasAudio {
			continue
		}
		if streamOut != b.out.String() {
			sp.wrong++
		}
		batch := ms(b.end - b.start)
		sp.openMS = append(sp.openMS, parts[0])
		sp.scanMS = append(sp.scanMS, parts[1])
		sp.reduceMS = append(sp.reduceMS, parts[2])
		sp.batchMS = append(sp.batchMS, batch)
		sp.residualMS = append(sp.residualMS, batch-parts[0]-parts[1]-parts[2])
	}
	return sp, nil
}

// wholeFeed runs req as a stream fed once: open, one Feed of each role's
// whole recording, then TryResult, which must decide. It returns the three
// parts' times in milliseconds and the outcome; hasAudio is false for a
// session decided at open.
func (c *client) wholeFeed(ctx context.Context, req piano.AuthRequest) (parts [3]float64, out string, hasAudio bool, err error) {
	t0 := c.now()
	sess, err := c.svc.OpenSessionContext(ctx, req)
	if err != nil {
		return parts, "", false, err
	}
	defer sess.Close()
	t1 := c.now()
	if sess.Recording(piano.RoleAuth) == nil {
		return parts, "", false, nil
	}
	for _, role := range roles {
		if err := sess.Feed(role, sess.Recording(role)); err != nil {
			return parts, "", true, err
		}
	}
	t2 := c.now()
	dec, need, err := sess.TryResult()
	t3 := c.now()
	if err == nil && need > 0 {
		err = fmt.Errorf("undecided after the whole recording (need %d)", need)
	}
	if err != nil {
		return parts, "", true, err
	}
	return [3]float64{ms(t1 - t0), ms(t2 - t1), ms(t3 - t2)}, decisionOutcome(dec).String(), true, nil
}

// writeSpans writes the traced phases' spans as JSON lines, one per call.
func writeSpans(path string, phases []phase) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for pi, p := range phases {
		for _, s := range p.spans {
			line := `{"phase":` + strconv.Itoa(pi) + `,"name":"` + spanNames[s.kind] +
				`","session":` + strconv.Itoa(int(s.session)) +
				`,"start_ns":` + strconv.FormatInt(s.start, 10) +
				`,"end_ns":` + strconv.FormatInt(s.end, 10)
			if s.mark != markNone {
				line += `,"returned":"` + markNames[s.mark] + `"`
			}
			w.WriteString(line + "}\n")
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
