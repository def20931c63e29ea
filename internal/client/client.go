package client

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/acoustic-auth/piano"
	"github.com/acoustic-auth/piano/internal/arrival"
)

// roles is the feed order within a round; Report.Fed is indexed by it.
var roles = [2]piano.Role{piano.RoleAuth, piano.RoleVouch}

// Schedule is one streaming client's feed plan.
type Schedule struct {
	// Arrival is the microphone model: chunk sizes and gaps, underrun
	// bursts, and the client's stall or abandon fate.
	Arrival arrival.Config
	// Wire, when non-nil, sends the chunks as frames over this lossy wire.
	// A wire schedule has no gaps; a client that stalls or abandons sends
	// the frames before its fate and then vanishes.
	Wire *arrival.WireConfig
	// Pace is the audio arrival speed as a multiple of real time: after
	// each round Drive waits the round's longest chunk gap divided by
	// Pace. 0 feeds flat out.
	Pace float64
}

// Validate rejects a schedule before any session opens: a chunk period
// that is not positive, a negative pace, or an arrival or wire
// probability outside its range.
func (s Schedule) Validate() error {
	if s.Arrival.ChunkMS <= 0 {
		return fmt.Errorf("client: chunk period %d ms is not positive", s.Arrival.ChunkMS)
	}
	if s.Pace < 0 {
		return fmt.Errorf("client: pace %g is negative", s.Pace)
	}
	if _, err := arrival.New(s.Arrival, 1); err != nil {
		return err
	}
	if s.Wire != nil {
		if _, err := arrival.Wire(s.Arrival, *s.Wire, 1, 1); err != nil {
			return err
		}
	}
	return nil
}

// Report is what one Drive call did to its session.
type Report struct {
	// Decision is the session's decision, nil unless Drive returned one.
	Decision *piano.Decision
	// Fed is the furthest sample offset the session accepted per role,
	// RoleAuth first.
	Fed [2]int
	// Corrupt counts the frames sent damaged that the session rejected.
	Corrupt int
	// Underruns counts the underrun backlog bursts fed.
	Underruns int
	// Gone is arrival.Stall or arrival.Abandon when the client vanished
	// mid-feed: Drive then returns a nil Decision and a nil error and
	// leaves the session open. Otherwise it is arrival.Done.
	Gone arrival.Kind
}

// feeder feeds role ri's next chunk or frame. It reports whether the
// role still had something to send and the arrival gap that follows.
type feeder func(ri int) (active bool, gap time.Duration, err error)

// Drive feeds sess on the schedule, seeded seed*2+ri for role ri, until
// the session decides, an error ends the feed, or the client vanishes.
// The session's own typed errors (ErrInsufficientAudio, a reap, the
// context's error) come back unwrapped. Drive never closes sess.
func Drive(ctx context.Context, sess *piano.AuthSession, seed int64, s Schedule) (Report, error) {
	rep := Report{Gone: arrival.Done}
	var feed feeder
	var err error
	if s.Wire != nil {
		feed, err = wireFeeder(sess, seed, s, &rep)
	} else {
		feed, err = chunkFeeder(sess, seed, s, &rep)
	}
	if err != nil {
		return rep, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		active := false
		var gap time.Duration
		for ri := range roles {
			a, g, err := feed(ri)
			if err != nil {
				return rep, err
			}
			if rep.Gone != arrival.Done {
				return rep, nil
			}
			active = active || a
			gap = max(gap, g)
		}
		if s.Pace > 0 && gap > 0 {
			t := time.NewTimer(time.Duration(float64(gap) / s.Pace))
			select {
			case <-ctx.Done():
			case <-t.C:
			}
			t.Stop()
		}
		dec, need, err := sess.TryResult()
		if err != nil {
			return rep, err
		}
		if need == 0 {
			rep.Decision = dec
			return rep, nil
		}
		if !active {
			return rep, fmt.Errorf("client: session undecided after its whole feed (need %d)", need)
		}
	}
}

// chunkFeeder feeds each role's arrival chunks in order with Feed.
func chunkFeeder(sess *piano.AuthSession, seed int64, s Schedule, rep *Report) (feeder, error) {
	var srcs [2]*arrival.Source
	for ri := range roles {
		src, err := arrival.New(s.Arrival, seed*2+int64(ri))
		if err != nil {
			return nil, err
		}
		srcs[ri] = src
	}
	return func(ri int) (bool, time.Duration, error) {
		rec := sess.Recording(roles[ri])
		at := rep.Fed[ri]
		ev := srcs[ri].Next(at, len(rec))
		switch ev.Kind {
		case arrival.Done:
			return false, 0, nil
		case arrival.Stall, arrival.Abandon:
			rep.Gone = ev.Kind
			return false, 0, nil
		}
		err := sess.Feed(roles[ri], rec[at:at+ev.N])
		switch {
		case err == nil:
			rep.Fed[ri] += ev.N
			if ev.Kind == arrival.Underrun {
				rep.Underruns++
			}
		case errors.Is(err, piano.ErrStreamDecided):
			// Decided already; the round's TryResult collects it.
		default:
			return false, 0, err
		}
		return true, ev.Gap, nil
	}, nil
}

// wireFeeder sends each role's frames in wire order with FeedFrame. Once
// the role's wire schedule runs out it finishes the feed, or, when the
// client's arrival fate is a stall or abandon, reports the client gone
// instead. A corrupt frame goes out with a damaged checksum and is not
// retransmitted, so its samples stay a gap unless a duplicate repairs them.
func wireFeeder(sess *piano.AuthSession, seed int64, s Schedule, rep *Report) (feeder, error) {
	var evs [2][]arrival.WireEvent
	var fates [2]arrival.Kind
	for ri, role := range roles {
		rseed, total := seed*2+int64(ri), len(sess.Recording(role))
		ev, err := arrival.Wire(s.Arrival, *s.Wire, rseed, total)
		if err != nil {
			return nil, err
		}
		if _, fates[ri], err = arrival.Chunks(s.Arrival, rseed, total); err != nil {
			return nil, err
		}
		evs[ri] = ev
	}
	var sent [2]int
	var finished [2]bool
	return func(ri int) (bool, time.Duration, error) {
		role := roles[ri]
		if finished[ri] {
			return false, 0, nil
		}
		if sent[ri] == len(evs[ri]) {
			if fates[ri] != arrival.Done {
				rep.Gone = fates[ri]
				return false, 0, nil
			}
			finished[ri] = true
			if err := sess.FinishFeed(role); err != nil && !errors.Is(err, piano.ErrStreamDecided) {
				return false, 0, err
			}
			return true, 0, nil
		}
		ev := evs[ri][sent[ri]]
		sent[ri]++
		f := piano.NewFrame(ev.Seq, ev.Offset, sess.Recording(role)[ev.Offset:ev.Offset+ev.N])
		if ev.Corrupt {
			f.CRC ^= 0xDEAD
		}
		err := sess.FeedFrame(role, f)
		switch {
		case err == nil:
			rep.Fed[ri] = max(rep.Fed[ri], ev.Offset+ev.N)
		case ev.Corrupt && errors.Is(err, piano.ErrFrameCorrupt):
			rep.Corrupt++
		case errors.Is(err, piano.ErrStreamDecided):
			// Decided already; the round's TryResult collects it.
		default:
			return false, 0, err
		}
		return true, 0, nil
	}, nil
}

// Categories lists the shed categories in report order. Every typed
// terminal error a piano.Service can hand a client maps to exactly one of
// them; "other" is kept for errors the taxonomy does not know.
var Categories = []string{"overloaded", "closed", "stalled", "expired", "internal", "canceled", "insufficient", "other"}

// Category buckets one failed session by its typed cause. The reap
// categories are checked before the context ones, so a watchdog
// resolution is reported as what the server decided (stalled or expired),
// never as the context error a losing feeder also saw.
func Category(err error) string {
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
		// The transport lost audio the decision would have had to trust,
		// and the server refused rather than guess.
		return "insufficient"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "other"
	}
}

// Workload builds n session requests, one per simulated user: device
// pairs staggered 0.3–1.65 m around the 1 m threshold, distinct clock
// skews, and request seeds seed0, seed0+1, … so every run replays.
func Workload(n int, seed0 int64) []piano.AuthRequest {
	reqs := make([]piano.AuthRequest, n)
	for i := range reqs {
		dist := 0.3 + 0.15*float64(i%10)
		reqs[i] = piano.AuthRequest{
			Auth:  piano.DeviceSpec{Name: fmt.Sprintf("hub-%d", i), X: 0, Y: 0, ClockSkewPPM: float64(5 + i%25)},
			Vouch: piano.DeviceSpec{Name: fmt.Sprintf("watch-%d", i), X: dist, Y: 0, ClockSkewPPM: -float64(3 + i%20)},
			Seed:  seed0 + int64(i),
		}
	}
	return reqs
}
