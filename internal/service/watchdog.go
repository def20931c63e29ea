package service

import (
	"errors"
	"fmt"
	"time"

	"github.com/acoustic-auth/piano/internal/faultinject"
)

// Session-lifecycle errors. A streaming session holds one of the service's
// MaxSessions slots from OpenSession until it resolves, so a client that
// stops feeding (a crashed process, a half-dead TCP peer, a phone that
// walked out of Bluetooth range) would leak that slot forever. When the
// lifecycle watchdog is enabled (Config.SessionIdleTimeout /
// SessionMaxLifetime), it resolves such sessions through the same
// first-writer-wins path as every other resolution, releasing the slot
// exactly once.
var (
	// ErrSessionReaped is the category sentinel for watchdog resolutions:
	// errors.Is(err, ErrSessionReaped) matches both ErrSessionStalled and
	// ErrSessionExpired, for callers that only care that the server gave
	// up on the client rather than why.
	ErrSessionReaped = errors.New("service: session reaped by lifecycle watchdog")
	// ErrSessionStalled resolves a session whose gap between successful
	// Feed calls (or between open and the first Feed) exceeded
	// Config.SessionIdleTimeout.
	ErrSessionStalled = fmt.Errorf("%w: stalled (no Feed within SessionIdleTimeout)", ErrSessionReaped)
	// ErrSessionExpired resolves a session that stayed unresolved past
	// Config.SessionMaxLifetime, however actively it was fed.
	ErrSessionExpired = fmt.Errorf("%w: expired (open past SessionMaxLifetime)", ErrSessionReaped)
)

// ErrConfig marks a Config rejected by New. Match with errors.Is; the
// message names the offending field.
var ErrConfig = errors.New("service: invalid config")

// validateConfig rejects configuration values that would otherwise be
// silently misread. Negative values are the regression this guards: a
// negative MaxQueueWait or MaxQueueDepth used to be treated as "unbounded"
// (the > 0 checks never armed the bound), which inverts the caller's
// intent, and a negative Workers or MaxSessions fell back to its default.
func validateConfig(cfg Config) error {
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"MaxQueueWait", cfg.MaxQueueWait},
		{"SessionIdleTimeout", cfg.SessionIdleTimeout},
		{"SessionMaxLifetime", cfg.SessionMaxLifetime},
		{"GapRepairTimeout", cfg.GapRepairTimeout},
	} {
		if d.v < 0 {
			return fmt.Errorf("%w: %s %v is negative (0 disables the bound)", ErrConfig, d.name, d.v)
		}
	}
	for _, n := range []struct {
		name, zero string
		v          int
	}{
		{"Workers", "GOMAXPROCS", cfg.Workers},
		{"MaxSessions", "4 × Workers", cfg.MaxSessions},
		{"MaxQueueDepth", "an unbounded queue", cfg.MaxQueueDepth},
		{"ReorderWindow", "the default window", cfg.ReorderWindow},
	} {
		if n.v < 0 {
			return fmt.Errorf("%w: %s %d is negative (0 means %s)", ErrConfig, n.name, n.v, n.zero)
		}
	}
	return nil
}

// watchdogInterval derives the sweep cadence from the configured bounds: a
// quarter of the tightest enabled bound, clamped to [1ms, 1s], so a
// session is reaped (or a gap declared lost) within ~1.25× its bound
// without a hot spin for generous bounds. Zero when no bound is enabled
// (no watchdog runs).
func watchdogInterval(idle, life, gap time.Duration) time.Duration {
	tightest := time.Duration(0)
	for _, d := range []time.Duration{idle, life, gap} {
		if d > 0 && (tightest == 0 || d < tightest) {
			tightest = d
		}
	}
	if tightest == 0 {
		return 0
	}
	every := tightest / 4
	if every < time.Millisecond {
		every = time.Millisecond
	}
	if every > time.Second {
		every = time.Second
	}
	return every
}

// watchdog is the per-service lifecycle goroutine: it sweeps the open
// streaming sessions every interval and resolves the ones past their
// idle/lifetime deadlines. It exits when Close begins draining.
func (s *AuthService) watchdog(every time.Duration) {
	defer close(s.watchdogDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.draining:
			return
		case now := <-t.C:
			s.sweep(now)
		}
	}
}

// sweep checks every open streaming session against the configured bounds
// and resolves the violators. Resolution goes through Session.resolve —
// the same first-writer-wins path as decisions, Close, and cancellation —
// so a sweep racing any of those releases the slot exactly once. A panic
// out of a sweep (only reachable via fault injection today) is recovered:
// losing one sweep is fine, losing the watchdog would silently disable
// reaping for the rest of the service's life.
func (s *AuthService) sweep(now time.Time) {
	defer func() { _ = recover() }()
	// Chaos hook: delay a sweep (late watchdog racing Close), error (skip
	// the sweep), panic (recovered above), or Hook (trigger Close
	// mid-sweep).
	if err := faultinject.Fire(faultinject.SiteServiceWatchdog); err != nil {
		return
	}
	s.mu.Lock()
	open := make([]*Session, 0, len(s.streams))
	for sn := range s.streams {
		open = append(open, sn)
	}
	s.mu.Unlock()
	for _, sn := range open {
		if err := sn.pastDeadline(now, s.cfg.SessionIdleTimeout, s.cfg.SessionMaxLifetime); err != nil {
			sn.resolve(nil, err)
			continue
		}
		// Gap repair deadlines: reassembly gaps older than GapRepairTimeout
		// are declared lost, which unlocks the audio buffered behind them
		// (and may resolve the session ErrInsufficientAudio past the loss
		// ceiling — through the same first-writer-wins path).
		if s.cfg.GapRepairTimeout > 0 {
			sn.expireGaps(now, s.cfg.GapRepairTimeout)
		}
	}
}

// pastDeadline reports which lifecycle bound (if any) the session has
// violated at time now. Lifetime is checked first: an expired session is
// expired even if it was fed a moment ago. The idle bound only applies
// between client calls — a Feed mid-ingestion or a TryResult mid-decision
// (a long scan on a slow or heavily loaded box) is activity, not a stall.
func (sn *Session) pastDeadline(now time.Time, idle, life time.Duration) error {
	if life > 0 && now.Sub(sn.opened) > life {
		return ErrSessionExpired
	}
	if idle > 0 && sn.active.Load() == 0 && now.Sub(time.Unix(0, sn.lastFeed.Load())) > idle {
		return ErrSessionStalled
	}
	return nil
}
