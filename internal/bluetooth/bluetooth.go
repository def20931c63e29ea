package bluetooth

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"

	"github.com/acoustic-auth/piano/internal/device"
)

// Common link errors.
var (
	// ErrOutOfRange is returned when the peer is beyond Bluetooth range.
	ErrOutOfRange = errors.New("bluetooth: peer out of range")
	// ErrEmptyInbox is returned by Recv when no frame is queued.
	ErrEmptyInbox = errors.New("bluetooth: no message pending")
	// ErrAuthFailed is returned when a frame fails AEAD authentication.
	ErrAuthFailed = errors.New("bluetooth: frame authentication failed")
)

// DefaultRangeM is the Bluetooth communication range the paper assumes
// ("roughly the communication range of Bluetooth on many commodity mobile
// devices" — 10 meters).
const DefaultRangeM = 10.0

// LatencyModel samples per-message transmission latency.
type LatencyModel struct {
	MeanSec   float64
	JitterSec float64
}

// DefaultLatency reflects a BT-classic RFCOMM round: ~30 ms ± 15 ms.
func DefaultLatency() LatencyModel {
	return LatencyModel{MeanSec: 0.030, JitterSec: 0.015}
}

// Sample draws one latency realization using the supplied RNG (simulation
// randomness, distinct from the cryptographic randomness of pairing).
func (m LatencyModel) Sample(rng *mrand.Rand) float64 {
	l := m.MeanSec + (2*rng.Float64()-1)*m.JitterSec
	if l < 0 {
		l = 0
	}
	return l
}

// frame is one encrypted message in flight.
type frame struct {
	nonce      []byte
	ciphertext []byte
}

// mailbox is the shared state of one pairing.
type mailbox struct {
	mu     sync.Mutex
	queues [2][]frame // indexed by receiving side
}

// Link is one device's endpoint of a paired Bluetooth connection.
type Link struct {
	local   *device.Device
	peer    *device.Device
	side    int // 0 or 1; nonce domain separator
	aead    cipher.AEAD
	rangeM  float64
	latency LatencyModel
	box     *mailbox
	sendSeq uint64
}

// Pair executes the registration phase: an ECDH key agreement between the
// two devices followed by channel-key derivation. It returns one Link per
// device. This mirrors the paper's one-time, user-confirmed pairing.
func Pair(a, b *device.Device, latency LatencyModel, rangeM float64) (*Link, *Link, error) {
	if a == nil || b == nil {
		return nil, nil, errors.New("bluetooth: nil device")
	}
	if a == b {
		return nil, nil, errors.New("bluetooth: cannot pair a device with itself")
	}
	if rangeM <= 0 {
		rangeM = DefaultRangeM
	}

	curve := ecdh.P256()
	privA, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("bluetooth: generate key for %q: %w", a.Name(), err)
	}
	privB, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("bluetooth: generate key for %q: %w", b.Name(), err)
	}
	sharedA, err := privA.ECDH(privB.PublicKey())
	if err != nil {
		return nil, nil, fmt.Errorf("bluetooth: ecdh: %w", err)
	}
	// Channel key = SHA-256(shared secret || context).
	h := sha256.New()
	h.Write(sharedA)
	h.Write([]byte("piano-bt-channel-v1"))
	key := h.Sum(nil)

	makeAEAD := func() (cipher.AEAD, error) {
		block, err := aes.NewCipher(key)
		if err != nil {
			return nil, err
		}
		return cipher.NewGCM(block)
	}
	aeadA, err := makeAEAD()
	if err != nil {
		return nil, nil, fmt.Errorf("bluetooth: aead: %w", err)
	}
	aeadB, err := makeAEAD()
	if err != nil {
		return nil, nil, fmt.Errorf("bluetooth: aead: %w", err)
	}

	box := &mailbox{}
	linkA := &Link{local: a, peer: b, side: 0, aead: aeadA, rangeM: rangeM, latency: latency, box: box}
	linkB := &Link{local: b, peer: a, side: 1, aead: aeadB, rangeM: rangeM, latency: latency, box: box}
	return linkA, linkB, nil
}

// InRange reports whether the peer is currently within Bluetooth range.
// PIANO's authentication phase checks this first: if the vouching device is
// not reachable, access is denied without estimating distance.
func (l *Link) InRange() bool {
	return l.local.DistanceTo(l.peer) <= l.rangeM
}

// Send encrypts payload and queues it for the peer, returning the sampled
// transmission latency in seconds (the protocol layer advances its
// simulated timeline by this much). Fails when the peer is out of range.
func (l *Link) Send(payload []byte, rng *mrand.Rand) (float64, error) {
	if !l.InRange() {
		return 0, fmt.Errorf("bluetooth: send from %q: %w", l.local.Name(), ErrOutOfRange)
	}
	nonce := make([]byte, l.aead.NonceSize())
	nonce[0] = byte(l.side)
	binary.LittleEndian.PutUint64(nonce[4:], l.sendSeq)
	l.sendSeq++
	ct := l.aead.Seal(nil, nonce, payload, nil)

	l.box.mu.Lock()
	recvSide := 1 - l.side
	l.box.queues[recvSide] = append(l.box.queues[recvSide], frame{nonce: nonce, ciphertext: ct})
	l.box.mu.Unlock()

	if rng == nil {
		return l.latency.MeanSec, nil
	}
	return l.latency.Sample(rng), nil
}

// Recv pops and decrypts the next pending frame for this endpoint.
func (l *Link) Recv() ([]byte, error) {
	if !l.InRange() {
		return nil, fmt.Errorf("bluetooth: recv at %q: %w", l.local.Name(), ErrOutOfRange)
	}
	l.box.mu.Lock()
	q := l.box.queues[l.side]
	if len(q) == 0 {
		l.box.mu.Unlock()
		return nil, ErrEmptyInbox
	}
	f := q[0]
	l.box.queues[l.side] = q[1:]
	l.box.mu.Unlock()

	pt, err := l.aead.Open(nil, f.nonce, f.ciphertext, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAuthFailed, err)
	}
	return pt, nil
}

// injectRaw queues an arbitrary frame for this endpoint, bypassing
// encryption. Tests use it to prove tampered frames are rejected.
func (l *Link) injectRaw(nonce, ciphertext []byte) {
	l.box.mu.Lock()
	defer l.box.mu.Unlock()
	l.box.queues[l.side] = append(l.box.queues[l.side], frame{nonce: nonce, ciphertext: ciphertext})
}
