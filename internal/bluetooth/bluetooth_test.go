package bluetooth

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/acoustic-auth/piano/internal/device"
)

func newDev(t *testing.T, name string, pos [2]float64) *device.Device {
	t.Helper()
	d, err := device.New(device.Config{Name: name, Position: pos, SampleRate: 44100})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func pairT(t *testing.T, a, b *device.Device) (*Link, *Link) {
	t.Helper()
	la, lb, err := Pair(a, b, DefaultLatency(), DefaultRangeM)
	if err != nil {
		t.Fatal(err)
	}
	return la, lb
}

func TestPairValidation(t *testing.T) {
	a := newDev(t, "a", [2]float64{0, 0})
	if _, _, err := Pair(nil, a, DefaultLatency(), 10); err == nil {
		t.Error("nil device accepted")
	}
	if _, _, err := Pair(a, a, DefaultLatency(), 10); err == nil {
		t.Error("self-pairing accepted")
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	a := newDev(t, "a", [2]float64{0, 0})
	b := newDev(t, "b", [2]float64{1, 0})
	la, lb := pairT(t, a, b)
	rng := rand.New(rand.NewSource(1))

	msg := []byte("reference signal descriptor")
	lat, err := la.Send(msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if lat < 0 || lat > 0.1 {
		t.Errorf("latency %g out of expected band", lat)
	}
	got, err := lb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}

	// Reverse direction.
	if _, err := lb.Send([]byte("location difference"), rng); err != nil {
		t.Fatal(err)
	}
	got, err = la.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "location difference" {
		t.Fatalf("got %q", got)
	}
}

func TestRecvEmptyInbox(t *testing.T) {
	a := newDev(t, "a", [2]float64{0, 0})
	b := newDev(t, "b", [2]float64{1, 0})
	la, _ := pairT(t, a, b)
	if _, err := la.Recv(); !errors.Is(err, ErrEmptyInbox) {
		t.Fatalf("err = %v", err)
	}
}

func TestOutOfRange(t *testing.T) {
	a := newDev(t, "a", [2]float64{0, 0})
	b := newDev(t, "b", [2]float64{1, 0})
	la, lb := pairT(t, a, b)
	rng := rand.New(rand.NewSource(2))

	if !la.InRange() {
		t.Fatal("1 m not in range")
	}
	// The user walks away beyond Bluetooth range.
	b.SetPosition([2]float64{15, 0})
	if la.InRange() {
		t.Fatal("15 m in range")
	}
	if _, err := la.Send([]byte("x"), rng); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("send err = %v", err)
	}
	if _, err := lb.Recv(); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("recv err = %v", err)
	}
	// Walking back restores the link (pairing persists).
	b.SetPosition([2]float64{2, 0})
	if _, err := la.Send([]byte("x"), rng); err != nil {
		t.Fatalf("send after return: %v", err)
	}
	if _, err := lb.Recv(); err != nil {
		t.Fatalf("recv after return: %v", err)
	}
}

func TestTamperedFrameRejected(t *testing.T) {
	a := newDev(t, "a", [2]float64{0, 0})
	b := newDev(t, "b", [2]float64{1, 0})
	la, lb := pairT(t, a, b)
	rng := rand.New(rand.NewSource(3))

	if _, err := la.Send([]byte("secret"), rng); err != nil {
		t.Fatal(err)
	}
	// Attacker flips ciphertext bits in flight.
	lb.box.mu.Lock()
	lb.box.queues[lb.side][0].ciphertext[0] ^= 0xFF
	lb.box.mu.Unlock()
	if _, err := lb.Recv(); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("tampered frame: err = %v", err)
	}

	// Attacker injects a forged frame without the channel key.
	lb.injectRaw(make([]byte, 12), []byte("forged ciphertext bytes"))
	if _, err := lb.Recv(); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("forged frame: err = %v", err)
	}
}

func TestDistinctPairingsHaveDistinctKeys(t *testing.T) {
	a := newDev(t, "a", [2]float64{0, 0})
	b := newDev(t, "b", [2]float64{1, 0})
	la, _ := pairT(t, a, b)
	_, lb2 := pairT(t, a, b) // second, independent pairing
	rng := rand.New(rand.NewSource(4))

	if _, err := la.Send([]byte("hello"), rng); err != nil {
		t.Fatal(err)
	}
	// Move the frame from pairing 1's mailbox into pairing 2's endpoint:
	// decryption must fail because the channel keys differ.
	la.box.mu.Lock()
	f := la.box.queues[1][0]
	la.box.mu.Unlock()
	lb2.injectRaw(f.nonce, f.ciphertext)
	if _, err := lb2.Recv(); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("cross-pairing frame accepted: %v", err)
	}
}

func TestLatencyModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := LatencyModel{MeanSec: 0.03, JitterSec: 0.015}
	for i := 0; i < 1000; i++ {
		l := m.Sample(rng)
		if l < 0.015-1e-12 || l > 0.045+1e-12 {
			t.Fatalf("latency %g out of band", l)
		}
	}
	neg := LatencyModel{MeanSec: 0.001, JitterSec: 0.5}
	for i := 0; i < 100; i++ {
		if neg.Sample(rng) < 0 {
			t.Fatal("negative latency")
		}
	}
}

func TestSendNilRNGUsesMean(t *testing.T) {
	a := newDev(t, "a", [2]float64{0, 0})
	b := newDev(t, "b", [2]float64{1, 0})
	la, _ := pairT(t, a, b)
	lat, err := la.Send([]byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if lat != DefaultLatency().MeanSec {
		t.Fatalf("latency %g, want mean", lat)
	}
}

func TestAccessors(t *testing.T) {
	a := newDev(t, "a", [2]float64{0, 0})
	b := newDev(t, "b", [2]float64{1, 0})
	la, lb := pairT(t, a, b)
	if la.peer != b || lb.peer != a {
		t.Error("peer mismatch")
	}
	if la.rangeM != DefaultRangeM {
		t.Error("range mismatch")
	}
	// Zero range falls back to the default.
	lc, _, err := Pair(a, b, DefaultLatency(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if lc.rangeM != DefaultRangeM {
		t.Error("default range not applied")
	}
}
