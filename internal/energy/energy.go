package energy

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// GalaxyS4CapacityJoules is the S4's 2600 mAh battery at 3.8 V nominal:
// 2.6 Ah · 3.8 V · 3600 s/h ≈ 35,568 J.
const GalaxyS4CapacityJoules = 2.6 * 3.8 * 3600

// PowerModel holds component draw in watts while active. Values follow
// published smartphone component measurements (PowerTutor-era hardware).
type PowerModel struct {
	// MicW is the microphone + ADC capture path draw.
	MicW float64
	// SpeakerW is the speaker amplifier draw while playing.
	SpeakerW float64
	// CPUW is the application-processor draw during FFT scanning.
	CPUW float64
	// BluetoothW is the radio draw during message exchange.
	BluetoothW float64
	// BaselineW is the app's residual draw (wakelock, scheduling) for the
	// whole authentication span.
	BaselineW float64
}

// DefaultPowerModel returns the calibrated Galaxy-S4-class model.
func DefaultPowerModel() PowerModel {
	return PowerModel{
		MicW:       0.12,
		SpeakerW:   0.45,
		CPUW:       1.2,
		BluetoothW: 0.10,
		BaselineW:  0.30,
	}
}

// Validate rejects non-positive component draws.
func (m PowerModel) Validate() error {
	for name, w := range map[string]float64{
		"mic": m.MicW, "speaker": m.SpeakerW, "cpu": m.CPUW,
		"bluetooth": m.BluetoothW, "baseline": m.BaselineW,
	} {
		if w <= 0 {
			return fmt.Errorf("energy: %s power %g must be positive", name, w)
		}
	}
	return nil
}

// Battery tracks cumulative drain against a capacity.
type Battery struct {
	mu       sync.Mutex
	capacity float64
	used     float64
}

// NewBattery builds a battery with the given capacity in joules.
func NewBattery(capacityJoules float64) (*Battery, error) {
	if capacityJoules <= 0 {
		return nil, errors.New("energy: capacity must be positive")
	}
	return &Battery{capacity: capacityJoules}, nil
}

// Drain consumes j joules (negative values are ignored).
func (b *Battery) Drain(j float64) {
	if j <= 0 {
		return
	}
	b.mu.Lock()
	b.used += j
	b.mu.Unlock()
}

// UsedJoules returns cumulative consumption.
func (b *Battery) UsedJoules() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// UsedPercent returns consumption as a percentage of capacity.
func (b *Battery) UsedPercent() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used / b.capacity * 100
}

// Ledger accumulates per-component energy for a run of authentications.
type Ledger struct {
	mu     sync.Mutex
	model  PowerModel
	joules map[string]float64
}

// NewLedger builds a ledger over the given power model.
func NewLedger(model PowerModel) (*Ledger, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Ledger{model: model, joules: make(map[string]float64)}, nil
}

// Model returns the ledger's power model.
func (l *Ledger) Model() PowerModel { return l.model }

// add records durSec seconds of a component drawing watts.
func (l *Ledger) add(component string, watts, durSec float64) {
	if durSec <= 0 {
		return
	}
	l.mu.Lock()
	l.joules[component] += watts * durSec
	l.mu.Unlock()
}

// RecordMic accounts for capture time.
func (l *Ledger) RecordMic(durSec float64) { l.add("mic", l.model.MicW, durSec) }

// RecordSpeaker accounts for playback time.
func (l *Ledger) RecordSpeaker(durSec float64) { l.add("speaker", l.model.SpeakerW, durSec) }

// RecordCPU accounts for detection/compute time.
func (l *Ledger) RecordCPU(durSec float64) { l.add("cpu", l.model.CPUW, durSec) }

// RecordBluetooth accounts for radio exchange time.
func (l *Ledger) RecordBluetooth(durSec float64) { l.add("bluetooth", l.model.BluetoothW, durSec) }

// RecordBaseline accounts for the app's residual draw.
func (l *Ledger) RecordBaseline(durSec float64) { l.add("baseline", l.model.BaselineW, durSec) }

// TotalJoules returns the summed consumption. Components are summed in
// sorted order so the result is deterministic across calls.
func (l *Ledger) TotalJoules() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.joules))
	for k := range l.joules {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += l.joules[k]
	}
	return sum
}

// Breakdown returns a stable, human-readable component split.
func (l *Ledger) Breakdown() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.joules))
	for k := range l.joules {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%.3fJ", k, l.joules[k])
	}
	return sb.String()
}
