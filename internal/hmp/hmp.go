// Package hmp models the alternative design the paper compares SAS against
// in §8.5: predicting head motion directly on the client device with a deep
// neural network, so the server can pre-render the exact FOV stream without
// tracking object semantics.
//
// The comparison needs only two ingredients:
//
//   - perfect prediction (the paper generously assumes 100% accuracy, so
//     the Fig 16 comparison counts every frame as a FOV hit and no fallback
//     ever happens);
//   - the energy cost, modeled here, of running the predictor per frame on
//     a dedicated mobile DNN accelerator — a 24×24 systolic array at 1 GHz,
//     the SCALE-Sim configuration the paper cites — which is the overhead
//     that makes on-device prediction lose to SAS despite its perfect hits.
package hmp

// Accelerator is a roofline model of a systolic-array DNN accelerator.
type Accelerator struct {
	Rows, Cols  int     // PE array dimensions
	ClockHz     float64 // core clock
	Utilization float64 // sustained PE utilization in (0, 1]
	ActiveW     float64 // power while computing
	DRAMJPerB   float64 // energy per byte of weight/activation traffic
}

// MobileAccelerator returns the §8.5 configuration: a 24×24 systolic array
// at 1 GHz, representative of a mobile DNN engine.
func MobileAccelerator() Accelerator {
	return Accelerator{
		Rows: 24, Cols: 24,
		ClockHz:     1e9,
		Utilization: 0.75,
		ActiveW:     1.2,
		DRAMJPerB:   0.35e-9,
	}
}

// Model describes the predictor network's per-inference work. The paper's
// cited predictor derives saliency from video frames with a CNN — billions
// of MACs per inference, far heavier than a pose-only regressor.
type Model struct {
	MACs     int64 // multiply-accumulates per inference
	TrafficB int64 // DRAM bytes (weights + activations) per inference
	Name     string
}

// SaliencyCNN returns a saliency-based head-movement predictor in the class
// the paper cites (CNN over downsampled panoramic frames).
func SaliencyCNN() Model {
	return Model{MACs: 6e9, TrafficB: 16 << 20, Name: "saliency-cnn"}
}

// InferenceSeconds returns the time of one inference on the accelerator.
func (a Accelerator) InferenceSeconds(m Model) float64 {
	macsPerSec := float64(a.Rows*a.Cols) * a.ClockHz * a.Utilization
	return float64(m.MACs) / macsPerSec
}

// InferenceEnergyJ returns the energy of one inference: core power over the
// compute time plus DRAM traffic.
func (a Accelerator) InferenceEnergyJ(m Model) float64 {
	return a.InferenceSeconds(m)*a.ActiveW + float64(m.TrafficB)*a.DRAMJPerB
}

// PerFrameOverheadJ returns the predictor energy charged per displayed
// frame when predicting every frame at the given rate.
func (a Accelerator) PerFrameOverheadJ(m Model, fps int) float64 {
	if fps <= 0 {
		return 0
	}
	return a.InferenceEnergyJ(m)
}
