package netsim

// Named link classes for heterogeneous-fleet and chaos runs. Every class
// validates; "wifi300" is the paper's evaluation link.
var classes = map[string]Link{
	"wifi300": WiFi300(),
	"wifi80":  {BandwidthBps: 80e6, RTTSeconds: 5e-3, JitterSeconds: 2e-3},
	"lte50":   {BandwidthBps: 50e6, RTTSeconds: 30e-3, LossRate: 0.005, JitterSeconds: 10e-3},
	"dsl20":   {BandwidthBps: 20e6, RTTSeconds: 15e-3, JitterSeconds: 5e-3},
	"lossy":   {BandwidthBps: 100e6, RTTSeconds: 10e-3, LossRate: 0.05, JitterSeconds: 20e-3},
}

// ClassByName resolves a named link class.
func ClassByName(name string) (Link, bool) {
	l, ok := classes[name]
	return l, ok
}

// Trace is a cyclic per-segment link schedule: segment i sees Steps[i mod
// len(Steps)]. It models bandwidth churn (square waves, steps, spikes)
// without any clock — deterministic by construction.
type Trace struct {
	Steps []Link
}

// At returns the link in effect for segment i. An empty trace returns the
// paper's evaluation link.
func (t Trace) At(i int) Link {
	if len(t.Steps) == 0 {
		return WiFi300()
	}
	if i < 0 {
		i = -i
	}
	return t.Steps[i%len(t.Steps)]
}
