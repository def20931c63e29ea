package energy

import (
	"math"
	"strings"
	"testing"
)

func TestBatteryBasics(t *testing.T) {
	if _, err := NewBattery(0); err == nil {
		t.Error("zero capacity accepted")
	}
	b, err := NewBattery(1000)
	if err != nil {
		t.Fatal(err)
	}
	b.Drain(10)
	b.Drain(-5) // ignored
	if b.UsedJoules() != 10 {
		t.Fatalf("used %g", b.UsedJoules())
	}
	if math.Abs(b.UsedPercent()-1.0) > 1e-12 {
		t.Fatalf("percent %g", b.UsedPercent())
	}
	if b.capacity != 1000 {
		t.Fatal("capacity")
	}
}

func TestGalaxyS4Capacity(t *testing.T) {
	// 9.88 Wh ≈ 35.6 kJ.
	if GalaxyS4CapacityJoules < 35000 || GalaxyS4CapacityJoules > 36000 {
		t.Fatalf("capacity %g out of S4 range", GalaxyS4CapacityJoules)
	}
}

func TestPowerModelValidate(t *testing.T) {
	if err := DefaultPowerModel().Validate(); err != nil {
		t.Fatal(err)
	}
	m := DefaultPowerModel()
	m.CPUW = 0
	if err := m.Validate(); err == nil {
		t.Error("zero cpu accepted")
	}
	if _, err := NewLedger(m); err == nil {
		t.Error("ledger accepted bad model")
	}
}

func TestLedgerAccounting(t *testing.T) {
	l, err := NewLedger(DefaultPowerModel())
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultPowerModel()
	l.RecordMic(10)
	l.RecordSpeaker(2)
	l.RecordCPU(1)
	l.RecordBluetooth(1)
	l.RecordBaseline(10)
	l.RecordMic(-1) // ignored
	want := m.MicW*10 + m.SpeakerW*2 + m.CPUW*1 + m.BluetoothW*1 + m.BaselineW*10
	if got := l.TotalJoules(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("total %g, want %g", got, want)
	}
	bd := l.Breakdown()
	for _, comp := range []string{"mic", "speaker", "cpu", "bluetooth", "baseline"} {
		if !strings.Contains(bd, comp) {
			t.Errorf("breakdown missing %s: %s", comp, bd)
		}
	}
	if l.Model().CPUW != DefaultPowerModel().CPUW {
		t.Fatal("model accessor")
	}
}
