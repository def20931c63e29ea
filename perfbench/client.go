package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/acoustic-auth/piano"
	"github.com/acoustic-auth/piano/internal/arrival"
)

// spanKind names one public call the benchmark times. The program itself
// is not instrumented: every span is taken around a call from here.
type spanKind uint8

const (
	spanAuthenticate spanKind = iota // Service.AuthenticateContext
	spanOpen                         // Service.OpenSessionContext (Steps I–III)
	spanFeed                         // AuthSession.Feed (incremental coarse scan)
	spanTryResult                    // AuthSession.TryResult (reduction, fine scan, Steps V–VI)
	spanFeedFrame                    // AuthSession.FeedFrame (reassembly, then the scan)
	spanFinishFeed                   // AuthSession.FinishFeed (gaps declared lost)
	spanSession                      // a whole session as the client sees it
)

var spanNames = [...]string{
	spanAuthenticate: "service.Authenticate",
	spanOpen:         "core.OpenSession",
	spanFeed:         "detect.Feed",
	spanTryResult:    "detect.TryResult",
	spanFeedFrame:    "frame.FeedFrame",
	spanFinishFeed:   "frame.FinishFeed",
	spanSession:      "loadgen.session",
}

// mark classifies a TryResult span by what the call returned.
type mark uint8

const (
	markNone    mark = iota
	markPending      // need > 0: the session wants more audio
	markDecided      // the decision
)

var markNames = [...]string{markNone: "", markPending: "pending", markDecided: "decided"}

// span is one timed call. Times are nanoseconds since the phase started;
// session is the phase-wide session number, shared by all of a session's
// spans.
type span struct {
	kind       spanKind
	mark       mark
	session    int32
	start, end int64
}

// outcome is what a session resolved to, in the form the reference
// records: a decision (granted, reason, the exact distance bits, and the
// degraded-mode loss counts) or a typed refusal.
type outcome struct {
	granted     bool
	reason      piano.Reason
	distBits    uint64
	lostSamples int
	lostWindows int
	refusal     string // "" for a decision
}

func decisionOutcome(d *piano.Decision) outcome {
	o := outcome{granted: d.Granted, reason: d.Reason, distBits: math.Float64bits(d.DistanceM)}
	if d.Degraded != nil {
		o.lostSamples, o.lostWindows = d.Degraded.LostSamples, d.Degraded.LostWindows
	}
	return o
}

func (o outcome) decided() bool  { return o.refusal == "" }
func (o outcome) degraded() bool { return o.lostSamples > 0 || o.lostWindows > 0 }

// String is the reference file's encoding of an outcome.
func (o outcome) String() string {
	if o.refusal != "" {
		return "refused " + o.refusal
	}
	verdict := "denied"
	if o.granted {
		verdict = "granted"
	}
	return fmt.Sprintf("%s %d %016x %d %d", verdict, int(o.reason), o.distBits, o.lostSamples, o.lostWindows)
}

// result is one session's record.
type result struct {
	session    int   // phase-wide session number
	idx        int   // pool index of its request
	start, end int64 // first call's start, resolving call's end
	lagStart   int64 // start of the last feed call before the decision; -1 if none fed audio
	out        outcome
	err        error // a failure other than a typed refusal; out is unset
	// Frame counters, summed over both roles: frames sent, frames the
	// service accepted with fresh samples, samples declared lost.
	framesSent, framesFresh, lostSamples int
}

func (r result) decided() bool { return r.err == nil && r.out.decided() }

// category buckets a failed or refused session by its typed cause, with
// the same categories as piano-loadgen.
func category(err error) string {
	switch {
	case errors.Is(err, piano.ErrSessionStalled):
		return "stalled"
	case errors.Is(err, piano.ErrSessionExpired):
		return "expired"
	case errors.Is(err, piano.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, piano.ErrClosed):
		return "closed"
	case errors.Is(err, piano.ErrInternal):
		return "internal"
	case errors.Is(err, piano.ErrInsufficientAudio):
		return "insufficient"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "other"
	}
}

var categories = []string{"overloaded", "closed", "stalled", "expired", "internal", "canceled", "insufficient", "other"}

var roles = [2]piano.Role{piano.RoleAuth, piano.RoleVouch}

// client is one closed-loop caller. It is used by one goroutine only.
type client struct {
	svc   *piano.Service
	epoch time.Time
	trace bool
	spans []span
}

func (c *client) now() int64 { return int64(time.Since(c.epoch)) }

// spanFrom records a span that started at start and ends now, when tracing.
func (c *client) spanFrom(k spanKind, session int, start int64) {
	if c.trace {
		c.spanAt(k, session, start, c.now(), markNone)
	}
}

func (c *client) spanAt(k spanKind, session int, start, end int64, m mark) {
	if c.trace {
		c.spans = append(c.spans, span{kind: k, mark: m, session: int32(session), start: start, end: end})
	}
}

// resolve fills r from the session's resolving TryResult call.
func (c *client) resolve(r *result, dec *piano.Decision, err error) {
	switch {
	case err == nil:
		r.out = decisionOutcome(dec)
	case errors.Is(err, piano.ErrInsufficientAudio):
		r.out = outcome{refusal: category(err)}
	default:
		r.err = err
	}
	c.spanAt(spanSession, r.session, r.start, r.end, markNone)
}

// batch runs one batch-closed session: one AuthenticateContext call. All
// of its audio arrives with the call, so its decision lag is its latency.
func (c *client) batch(ctx context.Context, session int, req piano.AuthRequest) result {
	r := result{session: session, start: c.now()}
	r.lagStart = r.start
	dec, err := c.svc.AuthenticateContext(ctx, req)
	r.end = c.now()
	c.spanAt(spanAuthenticate, session, r.start, r.end, markNone)
	c.resolve(&r, dec, err)
	return r
}

// stream runs one stream-closed session: open, then rounds of one
// in-order chunk per role on each role's seeded arrival schedule, fed flat
// out, with a TryResult after every round.
func (c *client) stream(ctx context.Context, session int, req piano.AuthRequest) result {
	r := result{session: session, start: c.now(), lagStart: -1}
	sess, err := c.svc.OpenSessionContext(ctx, req)
	c.spanFrom(spanOpen, session, r.start)
	if err != nil {
		r.end = c.now()
		c.resolve(&r, nil, err)
		return r
	}
	var recs [2][]int16
	var srcs [2]*arrival.Source
	var at [2]int
	for ri, role := range roles {
		recs[ri] = sess.Recording(role)
		if srcs[ri], err = arrival.New(feedConfig, roleSeed(req, ri)); err != nil {
			sess.Close()
			r.end = c.now()
			c.resolve(&r, nil, err)
			return r
		}
	}
	if recs[0] == nil {
		c.try(&r, sess, false) // pre-decided: out of Bluetooth range
		return r
	}
	for {
		fed := false
		for ri, role := range roles {
			ev := srcs[ri].Next(at[ri], len(recs[ri]))
			if ev.Kind != arrival.Chunk && ev.Kind != arrival.Underrun {
				continue
			}
			t := c.now()
			ferr := sess.Feed(role, recs[ri][at[ri]:at[ri]+ev.N])
			c.spanFrom(spanFeed, session, t)
			if ferr != nil && !errors.Is(ferr, piano.ErrStreamDecided) {
				sess.Close()
				r.end = c.now()
				c.resolve(&r, nil, ferr)
				return r
			}
			if ferr == nil {
				at[ri] += ev.N
				r.lagStart, fed = t, true
			}
		}
		if done := c.try(&r, sess, fed); done {
			return r
		}
	}
}

// try calls TryResult once and reports whether the session resolved. A
// session still undecided after a round that fed nothing is a failure.
func (c *client) try(r *result, sess *piano.AuthSession, fed bool) bool {
	t := c.now()
	dec, need, err := sess.TryResult()
	end := c.now()
	m := markDecided
	switch {
	case err != nil:
		m = markNone
	case need > 0:
		m = markPending
	}
	c.spanAt(spanTryResult, r.session, t, end, m)
	if m == markPending {
		if fed {
			return false
		}
		sess.Close()
		err = fmt.Errorf("session undecided after its whole feed (need %d)", need)
	}
	r.end = end
	for _, role := range roles {
		st := sess.FrameStats(role)
		r.framesFresh += st.Frames
		r.lostSamples += st.LostSamples
	}
	c.resolve(r, dec, err)
	return true
}

// lossy runs one stream-lossy session: each role's audio goes as CRC
// frames over the role's seeded wire schedule (reordered, duplicated, a
// few lost or corrupted; corrupt frames are not retransmitted), one frame
// per role per round, TryResult after every round, and FinishFeed once a
// role's schedule is exhausted.
func (c *client) lossy(ctx context.Context, session int, req piano.AuthRequest) result {
	r := result{session: session, start: c.now(), lagStart: -1}
	sess, err := c.svc.OpenSessionContext(ctx, req)
	c.spanFrom(spanOpen, session, r.start)
	if err != nil {
		r.end = c.now()
		c.resolve(&r, nil, err)
		return r
	}
	var recs [2][]int16
	var evs [2][]arrival.WireEvent
	var at [2]int
	var finished [2]bool
	for ri, role := range roles {
		recs[ri] = sess.Recording(role)
		if evs[ri], err = arrival.Wire(feedConfig, wireConfig, roleSeed(req, ri), len(recs[ri])); err != nil {
			sess.Close()
			r.end = c.now()
			c.resolve(&r, nil, err)
			return r
		}
	}
	if recs[0] == nil {
		c.try(&r, sess, false) // pre-decided: out of Bluetooth range
		return r
	}
	for {
		fed := false
		for ri, role := range roles {
			if finished[ri] {
				continue
			}
			var ferr error
			t := c.now()
			if at[ri] == len(evs[ri]) {
				ferr = sess.FinishFeed(role)
				c.spanFrom(spanFinishFeed, session, t)
				finished[ri] = true
			} else {
				ev := evs[ri][at[ri]]
				at[ri]++
				f := piano.NewFrame(ev.Seq, ev.Offset, recs[ri][ev.Offset:ev.Offset+ev.N])
				if ev.Corrupt {
					f.CRC ^= 0xDEAD
				}
				t = c.now()
				ferr = sess.FeedFrame(role, f)
				c.spanFrom(spanFeedFrame, session, t)
				r.framesSent++
			}
			switch {
			case ferr == nil:
				r.lagStart, fed = t, true
			case errors.Is(ferr, piano.ErrFrameCorrupt):
				fed = true
			case errors.Is(ferr, piano.ErrStreamDecided):
			default:
				sess.Close()
				r.end = c.now()
				c.resolve(&r, nil, ferr)
				return r
			}
		}
		if done := c.try(&r, sess, fed); done {
			return r
		}
	}
}
