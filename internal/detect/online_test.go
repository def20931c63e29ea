package detect

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"github.com/acoustic-auth/piano/internal/audio"
	"github.com/acoustic-auth/piano/internal/sigref"
)

// feedChunks feeds pcm to the stream in chunks of the given size (the final
// chunk may be short) and returns the stream's results, requiring need == 0.
func feedChunks(t *testing.T, st *Stream, pcm []int16, chunk int) []Result {
	t.Helper()
	for at := 0; at < len(pcm); at += chunk {
		end := at + chunk
		if end > len(pcm) {
			end = len(pcm)
		}
		if err := st.Feed(nil, pcm[at:end]); err != nil {
			t.Fatalf("chunk %d: feed [%d, %d): %v", chunk, at, end, err)
		}
	}
	res, need, err := st.Results(nil)
	if err != nil {
		t.Fatal(err)
	}
	if need != 0 {
		t.Fatalf("chunk %d: full feed still needs %d samples", chunk, need)
	}
	return res
}

// TestStreamNewValidation pins the trust-boundary checks of NewStream.
func TestStreamNewValidation(t *testing.T) {
	p := sigref.DefaultParams()
	rng := rand.New(rand.NewSource(3))
	sig, err := sigref.New(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	pOther := p
	pOther.Length = p.Length * 2
	other, err := sigref.New(pOther, rng)
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.NewStream(40000); err == nil {
		t.Error("no signals accepted")
	}
	if _, err := det.NewStream(40000, nil); err == nil {
		t.Error("nil signal accepted")
	}
	if _, err := det.NewStream(40000, sig, other); err == nil {
		t.Error("differing params accepted")
	}
	if _, err := det.NewStream(p.Length-1, sig); err == nil {
		t.Error("sub-window recording accepted")
	}
	if _, err := det.NewStream(MaxStreamLength+1, sig); err == nil {
		t.Error("over-bound recording accepted")
	}
	if _, err := det.NewStream(p.Length, sig); err != nil {
		t.Errorf("minimal recording rejected: %v", err)
	}
}

// TestStreamFeedOverflowTyped is the ingestion-bound regression test: a
// chunk that would exceed the declared length is rejected whole with
// ErrFeedOverflow and the stream stays usable with the audio fed so far.
func TestStreamFeedOverflowTyped(t *testing.T) {
	recF, s1, s2 := benchRecording(t, 17, 30000)
	pcm := audio.FromFloat(recF)
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := det.NewStream(len(pcm), s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Feed(nil, pcm[:20000]); err != nil {
		t.Fatal(err)
	}
	// 20000 fed + 10001 > 30000: rejected whole, nothing ingested.
	if err := st.Feed(nil, pcm[19999:]); !errors.Is(err, ErrFeedOverflow) {
		t.Fatalf("overlong feed returned %v, want ErrFeedOverflow", err)
	}
	if got := st.Fed(); got != 20000 {
		t.Fatalf("rejected chunk changed Fed to %d", got)
	}
	// The stream remains usable: the exact remainder completes it.
	if err := st.Feed(nil, pcm[20000:]); err != nil {
		t.Fatal(err)
	}
	res, need, err := st.Results(nil)
	if err != nil || need != 0 {
		t.Fatalf("after recovery: need=%d err=%v", need, err)
	}
	want, err := detectPCM(det, pcm, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("signal %d: recovered stream %+v != batch %+v", i, res[i], want[i])
		}
	}
}

// TestStreamReplayBitIdenticalAnyChunking is the engine-level chunking
// check: the same recording fed in 1-sample, prime-sized, window-aligned,
// and whole-recording chunks must reproduce the stream fed once
// (FedStream) field-for-field, at several GOMAXPROCS settings.
func TestStreamReplayBitIdenticalAnyChunking(t *testing.T) {
	recF, s1, s2 := benchRecording(t, 21, 52920)
	pcm := audio.FromFloat(recF)
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := detectPCM(det, pcm, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, chunk := range []int{1, 997, 4096, len(pcm)} {
			st, err := det.NewStream(len(pcm), s1, s2)
			if err != nil {
				t.Fatal(err)
			}
			got := feedChunks(t, st, pcm, chunk)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("procs=%d chunk=%d signal %d: stream %+v != batch %+v", procs, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamEarlyPrefixDecision: once the audio containing both signals —
// plus the fine band and one window — has arrived, Results must return the
// batch answer without the tail ever being fed.
func TestStreamEarlyPrefixDecision(t *testing.T) {
	p := sigref.DefaultParams()
	rng := rand.New(rand.NewSource(6))
	s1, err := sigref.New(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sigref.New(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	const total = 60000
	recF := make([]float64, total)
	for i, v := range s1.Samples() {
		recF[3000+i] += 0.5 * v
	}
	for i, v := range s2.Samples() {
		recF[9000+i] += 0.4 * v
	}
	pcm := audio.FromFloat(recF)
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := detectPCM(det, pcm, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if !want[0].Found || !want[1].Found {
		t.Fatalf("fixture signals not found: %+v", want)
	}

	st, err := det.NewStream(total, s1, s2)
	if err != nil {
		t.Fatal(err)
	}

	// Too little audio for even one window: need reports the shortfall.
	if err := st.Feed(nil, pcm[:100]); err != nil {
		t.Fatal(err)
	}
	if _, need, err := st.Results(nil); err != nil || need != p.Length-100 {
		t.Fatalf("sub-window prefix: need=%d err=%v, want %d", need, err, p.Length-100)
	}

	// The horizon: the later signal's window (arg ≈ 9000), its fine band
	// (+CoarseStep), plus one window length — everything the batch fine
	// scan will touch. Feed to just past it and stop.
	horizon := 9000 + det.Config().CoarseStep + p.Length + 64
	if err := st.Feed(nil, pcm[100:horizon]); err != nil {
		t.Fatal(err)
	}
	got, need, err := st.Results(nil)
	if err != nil {
		t.Fatal(err)
	}
	if need != 0 {
		t.Fatalf("horizon prefix still needs %d samples", need)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("signal %d: early %+v != batch %+v (fed %d of %d)", i, got[i], want[i], horizon, total)
		}
	}

	// Feeding the tail afterwards must not change anything.
	if err := st.Feed(nil, pcm[horizon:]); err != nil {
		t.Fatal(err)
	}
	late, need, err := st.Results(nil)
	if err != nil || need != 0 {
		t.Fatalf("full feed: need=%d err=%v", need, err)
	}
	for i := range want {
		if late[i] != want[i] {
			t.Fatalf("signal %d: full-feed %+v != batch %+v", i, late[i], want[i])
		}
	}
}

// TestStreamAbsentSignalPrefix: a silent recording's stream must report ⊥
// exactly like the batch scan, both on a prefix and after the full feed.
func TestStreamAbsentSignalPrefix(t *testing.T) {
	p := sigref.DefaultParams()
	sig, err := sigref.New(p, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pcm := make([]int16, 20000)
	want, err := detectPCM(det, pcm, sig)
	if err != nil {
		t.Fatal(err)
	}
	st, err := det.NewStream(len(pcm), sig)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Feed(nil, pcm[:10000]); err != nil {
		t.Fatal(err)
	}
	res, need, err := st.Results(nil)
	if err != nil || need != 0 {
		t.Fatalf("prefix: need=%d err=%v", need, err)
	}
	if res[0].Found {
		t.Fatal("found a signal in silence")
	}
	if err := st.Feed(nil, pcm[10000:]); err != nil {
		t.Fatal(err)
	}
	res, need, err = st.Results(nil)
	if err != nil || need != 0 {
		t.Fatalf("full: need=%d err=%v", need, err)
	}
	if res[0] != want[0] {
		t.Fatalf("silent stream %+v != batch %+v", res[0], want[0])
	}
}
