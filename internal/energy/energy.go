// Package energy provides the device-level energy accounting framework of
// the evaluation (§8.1): per-component power models for a TX2-class VR
// device and a ledger that integrates component energy over a playback run.
//
// The paper measures network, memory, and compute rails directly on the TX2
// via the on-board INA3221 monitor, the AMOLED panel externally, and storage
// through an eMMC energy model. We substitute calibrated constants chosen so
// the baseline reproduces Fig. 3a's structure: ~5 W total during 4K 360°
// playback — above the 3.5 W mobile TDP — with display/network/storage
// contributing only ~7%/9%/4% and compute + memory dominating.
package energy

import "fmt"

// Component identifies one of the five measured power domains.
type Component int

const (
	Display Component = iota
	Network
	Storage
	Memory
	Compute
	numComponents
)

// Components lists all domains in display order.
var Components = []Component{Display, Network, Storage, Memory, Compute}

// String implements fmt.Stringer.
func (c Component) String() string {
	switch c {
	case Display:
		return "display"
	case Network:
		return "network"
	case Storage:
		return "storage"
	case Memory:
		return "memory"
	case Compute:
		return "compute"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// MobileTDP is the thermal design point the paper quotes for mobile
// devices (§1, §3): 3.5 W.
const MobileTDP = 3.5

// Ledger accumulates energy per component over a simulated run.
type Ledger struct {
	joules  [numComponents]float64
	seconds float64
}

// Add charges joules to a component.
func (l *Ledger) Add(c Component, joules float64) {
	if joules < 0 {
		panic(fmt.Sprintf("energy: negative charge %v J to %v", joules, c))
	}
	l.joules[c] += joules
}

// AddPower charges a constant power draw over a duration.
func (l *Ledger) AddPower(c Component, watts, seconds float64) {
	l.Add(c, watts*seconds)
}

// AdvanceTime extends the wall-clock duration covered by the ledger.
func (l *Ledger) AdvanceTime(seconds float64) { l.seconds += seconds }

// Joules returns the energy charged to a component.
func (l *Ledger) Joules(c Component) float64 { return l.joules[c] }

// Total returns the energy across all components.
func (l *Ledger) Total() float64 {
	var t float64
	for _, j := range l.joules {
		t += j
	}
	return t
}

// Share returns a component's fraction of total energy, in [0, 1].
func (l *Ledger) Share(c Component) float64 {
	t := l.Total()
	if t == 0 {
		return 0
	}
	return l.joules[c] / t
}

// AveragePowerW returns total energy divided by covered time.
func (l *Ledger) AveragePowerW() float64 {
	if l.seconds == 0 {
		return 0
	}
	return l.Total() / l.seconds
}

// Merge adds another ledger's charges and duration into l.
func (l *Ledger) Merge(o Ledger) {
	for i := range l.joules {
		l.joules[i] += o.joules[i]
	}
	l.seconds += o.seconds
}
