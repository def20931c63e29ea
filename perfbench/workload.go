package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/acoustic-auth/piano"
	"github.com/acoustic-auth/piano/internal/arrival"
)

// poolSize is how many distinct requests one seed generates. Clients cycle
// through the pool, so a run of any length checks every session against a
// finite reference. The service keeps no per-request cache, so a repeated
// request costs what a fresh one does.
const poolSize = 64

// Shares of the pool that are not ordinary near/far pairs: through-wall
// pairs (the reference signals never reach the other microphone, so the
// decision is "signal absent") and vouching devices beyond Bluetooth range
// (denied before any audio exists).
const (
	wallPerPool    = 4
	outOfBTPerPool = 2
)

// environments is the ambient mix; quiet is left out because it makes
// detection trivially easy and no deployment is silent.
var environments = []piano.Environment{piano.Office, piano.Home, piano.Restaurant, piano.Street}

// requestPool generates the seed's request mix. Properties whose share
// drives cost (environment, interferer count, wall, Bluetooth range) are
// stratified, so two seeds cost about the same; the seed moves only the
// continuous draws (distance within its stratum, angle, clock skews,
// interferer positions, and the session seed the service renders from).
func requestPool(seed int64) []piano.AuthRequest {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(poolSize)
	reqs := make([]piano.AuthRequest, poolSize)
	for i := range reqs {
		// Distances 0.3–1.65 m around τ = 1 m, one stratum per request.
		dist := 0.3 + 1.35*(float64(perm[i])+rng.Float64())/poolSize
		angle := 2 * math.Pi * rng.Float64()
		req := piano.AuthRequest{
			Auth: piano.DeviceSpec{Name: fmt.Sprintf("hub-%d", i), ClockSkewPPM: skew(rng)},
			Vouch: piano.DeviceSpec{
				Name:         fmt.Sprintf("wearable-%d", i),
				X:            dist * math.Cos(angle),
				Y:            dist * math.Sin(angle),
				ClockSkewPPM: skew(rng),
			},
			Environment: environments[i%len(environments)],
			Seed:        rng.Int63(),
		}
		for k := 0; k < i%3; k++ {
			r := 2 + 2*rng.Float64()
			a := 2 * math.Pi * rng.Float64()
			req.Interferers = append(req.Interferers, piano.DeviceSpec{
				Name: fmt.Sprintf("other-%d-%d", i, k),
				X:    r * math.Cos(a),
				Y:    r * math.Sin(a),
			})
		}
		switch j := perm[(i+poolSize/2)%poolSize]; {
		case j < wallPerPool:
			req.Vouch.Room = 1
		case j < wallPerPool+outOfBTPerPool:
			req.Vouch.X, req.Vouch.Y = 12+3*rng.Float64(), 0
		}
		reqs[i] = req
	}
	return reqs
}

// skew draws a clock skew in ±30 ppm.
func skew(rng *rand.Rand) float64 { return 60*rng.Float64() - 30 }

// feedConfig is the stream workloads' chunk schedule: ~20 ms chunks with
// ±20% jitter, no underruns, stalls or abandons, since those make run time
// depend on watchdog timers rather than on program cost.
var feedConfig = arrival.Config{ChunkMS: 20, Jitter: 0.2}

// wireConfig is stream-lossy's transport. It mostly reorders and
// duplicates; its loss and corruption rates leave most sessions deciding,
// some degraded and a few refused with ErrInsufficientAudio.
var wireConfig = arrival.WireConfig{ReorderProb: 0.2, DupProb: 0.1, LossProb: 0.001, CorruptProb: 0.001}

// roleSeed derives a role's schedule seed from the request, so a pool
// request replays the same chunking and wire fates every time it recurs.
func roleSeed(req piano.AuthRequest, ri int) int64 { return req.Seed*2 + int64(ri) }
