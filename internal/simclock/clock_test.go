package simclock

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(0, 0, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := New(0, -44100, 0); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestTrueRateSkew(t *testing.T) {
	c, err := New(0, 44100, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := 44100 * (1 + 20e-6)
	if math.Abs(c.TrueRate()-want) > 1e-9 {
		t.Fatalf("TrueRate = %g, want %g", c.TrueRate(), want)
	}
}

func TestSampleTimeRoundTrip(t *testing.T) {
	f := func(offset, skew float64, sRaw uint32) bool {
		offset = math.Mod(offset, 100)
		skew = math.Mod(skew, 100)
		c, err := New(offset, 44100, skew)
		if err != nil {
			return false
		}
		s := float64(sRaw % 10_000_000)
		back := c.SampleAt(c.OffsetSec + s/c.TrueRate()) // the global time sample s is captured
		return math.Abs(back-s) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleAtOffset(t *testing.T) {
	c, err := New(2.0, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.SampleAt(2.0); got != 0 {
		t.Fatalf("SampleAt(offset) = %g", got)
	}
	if got := c.SampleAt(3.0); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("SampleAt(offset+1s) = %g", got)
	}
}
