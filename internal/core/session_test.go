package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestSameIndexSet covers the Step-I collision guard: identical frequency
// sets between S_A and S_V would let each device detect its own play as
// both signals, collapsing the distance to zero with the user absent.
func TestSameIndexSet(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{nil, nil, true},
		{[]int{1, 2}, []int{1, 2}, true},
		{[]int{1, 2}, []int{1, 3}, false},
		{[]int{1, 2}, []int{1, 2, 3}, false},
		{[]int{1}, nil, false},
	}
	for _, c := range cases {
		if got := sameIndexSet(c.a, c.b); got != c.want {
			t.Errorf("sameIndexSet(%v, %v) = %v", c.a, c.b, got)
		}
	}
}

// TestNonFiniteReportedRateDenies: a Step-V report carrying a NaN or +Inf
// sampling rate would make the Eq. 3 distance NaN, which passes both the
// plausibility gate and the τ comparison (every comparison with NaN is
// false) and so would grant. Such a report must be refused typed and never
// grant.
func TestNonFiniteReportedRateDenies(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1)} {
		auth, vouch := newPair(t, 0.8, true)
		a, err := NewAuthenticator(DefaultConfig(), auth, vouch, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		// A hostile or buggy vouching device: its report reaches the
		// authenticating device ahead of the honest one.
		if _, err := a.linkVouch.Send(encodeLocDiff(locDiffMsg{diff: 0, rate: rate}), nil); err != nil {
			t.Fatal(err)
		}
		res, err := a.Authenticate()
		if !errors.Is(err, ErrBadReport) {
			t.Fatalf("rate %g: got (%+v, %v), want ErrBadReport", rate, res, err)
		}
		if res != nil && res.Granted {
			t.Fatalf("rate %g: granted", rate)
		}
	}
}

// FuzzDecodeLocDiff drives the Step-V report decoder — the bytes a
// vouching device sends — with arbitrary payloads: decoding either errs or
// yields a finite positive rate, and an accepted payload re-encodes to
// exactly the bytes received.
func FuzzDecodeLocDiff(f *testing.F) {
	for _, m := range []locDiffMsg{
		{diff: 1234, rate: 44100},
		{diff: -77, rate: 48000},
		{diff: 0, rate: math.NaN()},
		{diff: 0, rate: math.Inf(1)},
		{diff: 0, rate: math.Inf(-1)},
		{diff: 5, rate: 0},
		{diff: 5, rate: -44100},
		{diff: math.MaxInt64, rate: math.SmallestNonzeroFloat64},
	} {
		f.Add(encodeLocDiff(m))
	}
	f.Add([]byte{})
	f.Add(make([]byte, 15))
	f.Add(make([]byte, 17))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeLocDiff(data)
		if err != nil {
			if !errors.Is(err, ErrBadReport) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if math.IsNaN(m.rate) || math.IsInf(m.rate, 0) || m.rate <= 0 {
			t.Fatalf("accepted rate %g", m.rate)
		}
		if got := encodeLocDiff(m); !bytes.Equal(got, data) {
			t.Fatalf("round trip %x → %x", data, got)
		}
	})
}
