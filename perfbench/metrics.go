package main

import (
	"syscall"
)

// metric is one named figure in the result line.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcomes tallies a set of sessions.
type outcomes struct {
	attempted, decided, refused, failed int
	latencyMS, lagMS                    []float64
	shed                                map[string]int
}

func tally(ps []phase) outcomes {
	t := outcomes{shed: map[string]int{}}
	for _, p := range ps {
		for _, r := range p.results {
			t.attempted++
			switch {
			case r.err != nil:
				t.failed++
				t.shed[category(r.err)]++
			case !r.out.decided():
				t.refused++
				t.shed[r.out.refusal]++
			default:
				t.decided++
				t.latencyMS = append(t.latencyMS, ms(r.end-r.start))
				if r.lagStart >= 0 {
					t.lagMS = append(t.lagMS, ms(r.end-r.lagStart))
				}
			}
		}
	}
	return t
}

// sessionsPerS is decided sessions over the phases' wall time. Refused
// and failed sessions spend wall time but do not count.
func sessionsPerS(ps []phase) float64 {
	var wall int64
	for _, p := range ps {
		wall += p.wall
	}
	return ratio(float64(tally(ps).decided), float64(wall)/1e9)
}

// endToEnd is the untraced run's result, as a user of the service sees it.
func endToEnd(rep *report) []metric {
	t := tally(rep.untraced)
	return []metric{
		{"sessions_per_s", sessionsPerS(rep.untraced), "1/s"},
		{"latency_p50_ms", median(t.latencyMS).value, "ms"},
		{"latency_tail_ms", tail(t.latencyMS).value, "ms"},
		{"decision_lag_p50_ms", median(t.lagMS).value, "ms"},
		{"decision_lag_tail_ms", tail(t.lagMS).value, "ms"},
		{"decided_share", ratio(float64(t.decided), float64(t.attempted)), "ratio"},
		{"setup_s", median(rep.setupS).value, "s"},
		{"max_rss_mb", maxRSSMiB(), "MiB"},
	}
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// perLayer derives the layer metrics from the traced phases' spans. A
// layer the workload does not reach reads 0.
func perLayer(rep *report) []metric {
	t := tally(rep.traced)
	n := float64(t.attempted)
	durs := map[spanKind][]float64{}
	var pendingMS, finalMS []float64
	var callsMS, sessionMS float64
	var framesSent, framesFresh, lost, degraded float64
	var alloc, gcs float64
	for _, p := range rep.traced {
		alloc += float64(p.allocBytes)
		gcs += float64(p.gcCycles)
		for _, s := range p.spans {
			d := ms(s.end - s.start)
			if s.kind == spanSession {
				sessionMS += d
				continue
			}
			callsMS += d
			durs[s.kind] = append(durs[s.kind], d)
			switch {
			case s.kind != spanTryResult:
			case s.mark == markPending:
				pendingMS = append(pendingMS, d)
			case s.mark == markDecided:
				finalMS = append(finalMS, d)
			}
		}
		for _, r := range p.results {
			framesSent += float64(r.framesSent)
			framesFresh += float64(r.framesFresh)
			lost += float64(r.lostSamples)
			if r.decided() && r.out.degraded() {
				degraded++
			}
		}
	}
	perSession := func(k spanKind) float64 { return ratio(sum(durs[k]), n) }
	calls := func(k spanKind) float64 { return ratio(float64(len(durs[k])), n) }
	out := []metric{
		{"service.Authenticate.ms_p50", median(durs[spanAuthenticate]).value, "ms"},
		{"service.Authenticate.ms_tail", tail(durs[spanAuthenticate]).value, "ms"},
	}
	for _, c := range categories {
		out = append(out, metric{"service.shed." + c, float64(t.shed[c]), "count"})
	}
	untracedRate := sessionsPerS(rep.untraced)
	out = append(out,
		metric{"core.OpenSession.ms_p50", median(durs[spanOpen]).value, "ms"},
		metric{"detect.Feed.calls_per_session", calls(spanFeed), "count"},
		metric{"detect.Feed.ms_per_session", perSession(spanFeed), "ms"},
		metric{"detect.TryResult.calls_per_session", calls(spanTryResult), "count"},
		metric{"detect.TryResult.pending_ms_per_session", ratio(sum(pendingMS), n), "ms"},
		metric{"detect.TryResult.final_ms_p50", median(finalMS).value, "ms"},
		metric{"detect.TryResult.useful_ratio", ratio(float64(len(finalMS)), float64(len(durs[spanTryResult]))), "ratio"},
		metric{"frame.FeedFrame.ms_per_session", perSession(spanFeedFrame), "ms"},
		metric{"frame.FinishFeed.ms_per_session", perSession(spanFinishFeed), "ms"},
		metric{"frame.frames_per_session", ratio(framesSent, n), "count"},
		metric{"frame.accepted_ratio", ratio(framesFresh, framesSent), "ratio"},
		metric{"frame.lost_samples_per_session", ratio(lost, n), "count"},
		metric{"frame.degraded_share", ratio(degraded, n), "ratio"},
		metric{"batch_split.open_ms_p50", median(rep.split.openMS).value, "ms"},
		metric{"batch_split.scan_ms_p50", median(rep.split.scanMS).value, "ms"},
		metric{"batch_split.reduce_ms_p50", median(rep.split.reduceMS).value, "ms"},
		metric{"batch_split.batch_ms_p50", median(rep.split.batchMS).value, "ms"},
		metric{"batch_split.residual_ms_p50", median(rep.split.residualMS).value, "ms"},
		metric{"runtime.alloc_kb_per_session", ratio(alloc/1024, n), "KiB"},
		metric{"runtime.gc_cycles_per_session", ratio(gcs, n), "count"},
		metric{"loadgen.client_ms_per_session", ratio(sessionMS-callsMS, n), "ms"},
		metric{"trace.overhead_pct", 100 * ratio(untracedRate-sessionsPerS(rep.traced), untracedRate), "%"},
	)
	return out
}
