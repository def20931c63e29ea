package arrival

import (
	"reflect"
	"testing"
)

// TestWirePerfectIsIdentity: the zero WireConfig delivers every chunk
// exactly once, in order, intact — the framed twin of a plain feed.
func TestWirePerfectIsIdentity(t *testing.T) {
	const total = 44100
	chunks, _, err := Chunks(Config{Jitter: 0.3}, 7, total)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := Wire(Config{Jitter: 0.3}, WireConfig{}, 7, total)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(chunks) {
		t.Fatalf("perfect wire delivered %d events for %d chunks", len(evs), len(chunks))
	}
	off := 0
	for i, ev := range evs {
		if ev.Seq != uint32(i) || ev.Offset != off || ev.N != chunks[i] || ev.Corrupt {
			t.Fatalf("event %d = %+v, want seq %d offset %d n %d intact", i, ev, i, off, chunks[i])
		}
		off += ev.N
	}
	if off != total {
		t.Fatalf("perfect wire delivered %d of %d samples", off, total)
	}
}

// TestWireDeterministic: the same (cfg, wire, seed, total) replays the
// same schedule, and different seeds diverge.
func TestWireDeterministic(t *testing.T) {
	cfg := Config{Jitter: 0.2}
	wire := WireConfig{LossProb: 0.1, DupProb: 0.1, ReorderProb: 0.2, CorruptProb: 0.05}
	a, err := Wire(cfg, wire, 42, 88200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Wire(cfg, wire, 42, 88200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different wire schedules")
	}
	c, err := Wire(cfg, wire, 43, 88200)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical wire schedules")
	}
}

// TestWireScheduleStability: WireConfigs sharing a seed agree on frame
// boundaries — probability knobs change which frames suffer, never the
// partition. The surviving frames of a lossy schedule are a subset of the
// perfect schedule's frames, byte for byte.
func TestWireScheduleStability(t *testing.T) {
	cfg := Config{Jitter: 0.25}
	const total = 88200
	perfect, err := Wire(cfg, WireConfig{}, 11, total)
	if err != nil {
		t.Fatal(err)
	}
	byseq := map[uint32]WireEvent{}
	for _, ev := range perfect {
		byseq[ev.Seq] = ev
	}
	lossy, err := Wire(cfg, WireConfig{LossProb: 0.3, DupProb: 0.2, ReorderProb: 0.3, CorruptProb: 0.2}, 11, total)
	if err != nil {
		t.Fatal(err)
	}
	if len(lossy) == len(perfect) {
		t.Fatal("lossy wire suffered no fates (suspicious fixture)")
	}
	for _, ev := range lossy {
		ref, ok := byseq[ev.Seq]
		if !ok {
			t.Fatalf("lossy schedule invented frame seq %d", ev.Seq)
		}
		if ev.Offset != ref.Offset || ev.N != ref.N {
			t.Fatalf("frame %d boundaries changed under loss: %+v vs %+v", ev.Seq, ev, ref)
		}
	}
}

// TestWireValidate: out-of-range probabilities and negative spans are
// rejected with named errors.
func TestWireValidate(t *testing.T) {
	bad := []WireConfig{
		{LossProb: -0.1},
		{LossProb: 1.1},
		{DupProb: 2},
		{ReorderProb: -1},
		{CorruptProb: 1.5},
		{ReorderSpan: -4},
	}
	for _, w := range bad {
		if _, err := Wire(Config{}, w, 1, 1000); err == nil {
			t.Errorf("WireConfig %+v accepted", w)
		}
	}
}

// TestWireTotalLoss: LossProb 1 delivers nothing at all.
func TestWireTotalLoss(t *testing.T) {
	evs, err := Wire(Config{}, WireConfig{LossProb: 1}, 3, 44100)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 {
		t.Fatalf("LossProb 1 still delivered %d frames", len(evs))
	}
}
