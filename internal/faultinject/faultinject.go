package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Site names compiled into production code. Arming any other name is legal
// (tests may instrument their own code), but these are the points the
// service stack fires on every request:
const (
	// SiteServiceAcquire fires in AuthService slot acquisition, before the
	// request waits for a session slot. Delay here simulates queue
	// pressure; an error sheds the request with that error.
	SiteServiceAcquire = "service.acquire"
	// SiteServiceSession fires once per admitted session, before the
	// session pipeline runs. Panic here simulates a session-goroutine
	// crash; a long delay holds a session slot (slot starvation for
	// everyone queued behind it).
	SiteServiceSession = "service.session"
	// SiteDetectBlock fires once per claimed hop block in the detect scan
	// engine — the innermost cancellation checkpoint. Panic here simulates
	// a scan-goroutine crash mid-scan; delay simulates a slow-scan stall; a
	// Hook can cancel the session's context mid-scan.
	SiteDetectBlock = "detect.block"
	// SiteStreamFeed fires once per Session.Feed call on a streaming
	// authentication session, before the chunk is ingested. An error fails
	// that feed (the chunk is not ingested; the session stays open); panic
	// here simulates a feeder-goroutine crash, which resolves the whole
	// session to ErrInternal; delay simulates a stalled audio source.
	SiteStreamFeed = "service.feed"
	// SiteFrameFeed fires once per Session.FeedFrame call on a streaming
	// authentication session, before the frame enters the reassembler. An
	// error fails that frame (nothing is ingested; the session stays
	// open); panic here simulates a framed-feeder crash, which resolves
	// the whole session to ErrInternal; delay simulates a congested
	// transport.
	SiteFrameFeed = "service.framefeed"
	// SiteServiceWatchdog fires once per lifecycle-watchdog sweep, before
	// any open session's idle/lifetime deadlines are checked. An error
	// skips that sweep (the watchdog stays alive and sweeps again next
	// tick); a panic is recovered by the watchdog (one lost sweep, never a
	// dead watchdog); delay simulates a late watchdog racing Close; a Hook
	// can trigger Close mid-sweep to pin the reap/drain race.
	SiteServiceWatchdog = "service.watchdog"
)

// Action says what a triggered Fault does to the firing goroutine.
type Action int

// Actions, in increasing order of violence.
const (
	// ActHook only runs the Hook (if any) and returns nil — used to
	// observe a site or cancel a context without perturbing the call.
	ActHook Action = iota
	// ActDelay sleeps Delay, runs the Hook, and returns nil.
	ActDelay
	// ActError runs the Hook and returns Err from Fire.
	ActError
	// ActPanic runs the Hook and panics with a descriptive value — the
	// injected stand-in for a bug in a worker or session goroutine.
	ActPanic
)

// Fault is one armed behaviour at a site.
type Fault struct {
	// Action selects the behaviour when the fault triggers.
	Action Action
	// Err is what Fire returns for ActError (nil → a generic error).
	Err error
	// Delay is the ActDelay sleep duration.
	Delay time.Duration
	// Skip suppresses the first Skip firings of the site (deterministic,
	// counted per site).
	Skip int
	// Times bounds how often the fault triggers (0 → every eligible
	// firing). Counted per site, so count-based schedules replay exactly.
	Times int
	// Prob, when in (0, 1), gates each eligible firing on a draw from the
	// registry's seeded RNG; 0 (or ≥ 1) means "always". Schedule-dependent
	// under concurrency — prefer Skip/Times for exact replay.
	Prob float64
	// Hook, when non-nil, runs on every trigger before the action takes
	// effect (e.g. a context.CancelFunc for forced mid-scan cancellation).
	Hook func()
}

// armed is a Fault plus its per-site trigger bookkeeping.
type armed struct {
	f     Fault
	calls int // firings seen at this site
	hits  int // firings that triggered
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	rng     *rand.Rand
	sites   map[string]*armed
)

// Enable arms the registry: clears all sites and reseeds the RNG. Faults
// armed before Enable are discarded, so each chaos scenario starts from a
// clean slate.
func Enable(seed int64) {
	mu.Lock()
	rng = rand.New(rand.NewSource(seed))
	sites = make(map[string]*armed)
	mu.Unlock()
	enabled.Store(true)
}

// Disable restores the zero-cost path and clears every armed fault.
func Disable() {
	enabled.Store(false)
	mu.Lock()
	sites = nil
	rng = nil
	mu.Unlock()
}

// Arm installs (or replaces) the fault at site. A site holds one fault at
// a time; arming resets its counters. No-op unless Enable has run.
func Arm(site string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		return
	}
	sites[site] = &armed{f: f}
}

// Hits reports how many times the fault at site has triggered (0 for
// unknown sites) — chaos tests assert on it to prove a scenario actually
// exercised the failure path it claims to.
func Hits(site string) int {
	mu.Lock()
	defer mu.Unlock()
	if a, ok := sites[site]; ok {
		return a.hits
	}
	return 0
}

// Fire is the instrumented-code entry point. Disabled (the production
// state) it is one atomic load. Enabled, it checks whether site has an
// armed fault whose trigger discipline matches this firing and, if so,
// performs its Action — sleeping, returning an error, or panicking on the
// caller's goroutine.
func Fire(site string) error {
	if !enabled.Load() {
		return nil
	}
	return fire(site)
}

// fire is the armed slow path, split out so Fire stays inlinable.
func fire(site string) error {
	mu.Lock()
	a, ok := sites[site]
	if !ok {
		mu.Unlock()
		return nil
	}
	a.calls++
	if a.calls <= a.f.Skip {
		mu.Unlock()
		return nil
	}
	if a.f.Times > 0 && a.hits >= a.f.Times {
		mu.Unlock()
		return nil
	}
	if a.f.Prob > 0 && a.f.Prob < 1 && rng.Float64() >= a.f.Prob {
		mu.Unlock()
		return nil
	}
	a.hits++
	f := a.f
	mu.Unlock()

	// Side effects happen outside the lock: a sleeping or panicking site
	// must not serialize every other site in the process.
	if f.Hook != nil {
		f.Hook()
	}
	switch f.Action {
	case ActDelay:
		time.Sleep(f.Delay)
	case ActError:
		if f.Err != nil {
			return f.Err
		}
		return fmt.Errorf("faultinject: injected error at %s", site)
	case ActPanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", site))
	}
	return nil
}
