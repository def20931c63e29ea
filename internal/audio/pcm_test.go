package audio

import "testing"

func TestClamp16(t *testing.T) {
	cases := []struct {
		in   float64
		want int16
	}{
		{0, 0},
		{1.4, 1},
		{1.6, 2},
		{-1.6, -2},
		{40000, MaxSample},
		{-40000, MinSample},
		{MaxSample, MaxSample},
		{MinSample, MinSample},
	}
	for _, c := range cases {
		if got := Clamp16(c.in); got != c.want {
			t.Errorf("Clamp16(%g) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFloatRoundTrip(t *testing.T) {
	pcm := []int16{0, 1, -1, MaxSample, MinSample, 1234}
	back := FromFloat(ToFloat(pcm))
	for i := range pcm {
		if back[i] != pcm[i] {
			t.Fatalf("round trip diverged at %d: %d vs %d", i, back[i], pcm[i])
		}
	}
}
