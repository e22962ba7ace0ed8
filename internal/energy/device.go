package energy

// DeviceModel holds the calibrated power and per-unit energy constants of
// the TX2-class evaluation device. All figures are substitutes for the
// paper's rail measurements, chosen so that baseline 4K 360° playback
// reproduces Fig. 3a: ~5 W total, display ≈ 7%, network ≈ 9%, storage ≈ 4%,
// with compute and memory taking the rest; and so that the GPU-executed PT
// accounts for roughly 40% of compute+memory energy (Fig. 3b).
type DeviceModel struct {
	// Display panel (AMOLED, 2560×1440) average draw during playback.
	DisplayPowerW float64

	// Network: WiFi receive energy per payload byte plus an idle/beacon
	// floor while the radio is associated.
	NetJPerByte float64
	NetIdleW    float64

	// Storage: eMMC energy per byte; streamed segments are cached, so
	// each byte is written once and read once (§3: storage is involved
	// "mainly for temporary caching").
	StorageJPerByte float64

	// Memory: DRAM background power plus per-byte access energy for all
	// traffic (decode output, PT texture reads, FOV writes, scanout).
	DRAMStaticW  float64
	DRAMJPerByte float64

	// Compute: SoC base load (OS, player software), video-codec IP energy
	// split into per-compressed-byte and per-pixel parts, and the display
	// processor's per-pixel cost.
	CPUBaseW             float64
	DecodeJPerByte       float64
	DecodeJPerPixel      float64
	DisplayProcJPerPixel float64
}

// TX2 returns the calibrated device model.
func TX2() DeviceModel {
	return DeviceModel{
		DisplayPowerW: 0.35,

		NetJPerByte: 55e-9,
		NetIdleW:    0.10,

		StorageJPerByte: 16e-9,

		DRAMStaticW:  0.40,
		DRAMJPerByte: 0.35e-9,

		CPUBaseW:             0.60,
		DecodeJPerByte:       71e-9,
		DecodeJPerPixel:      0.8e-9,
		DisplayProcJPerPixel: 2.2e-9,
	}
}

// The baseline the paper's HAR primitive replaces: the TX2's mobile GPU
// executing projective transformation as generic texture mapping (§2,
// §6.1). Its pixels are the float reference's (pt.Render) by definition;
// only its price is modeled — shaded viewport pixels at a sustained
// throughput and active rail power, plus a fixed per-frame software-stack
// energy (application library, runtime and OS driver under OpenGL).
const (
	GPUActivePowerW    = 1.80  // GPU rail power while shading
	GPUThroughputPixPS = 150e6 // sustained shaded pixels per second
	GPUStackEnergyJ    = 5e-3  // per-frame software-stack (driver/runtime) energy
)

// GPUFrameJ returns the modeled energy of one GPU PT frame of the given
// viewport pixel count.
func GPUFrameJ(pixels int) float64 {
	return float64(pixels)/GPUThroughputPixPS*GPUActivePowerW + GPUStackEnergyJ
}

// NominalBitrateMbps models the compressed bitrate of a 4K 360° video as a
// function of its content complexity in (0, 1] — real 4K panoramas span
// roughly 2× across content types, which is where the per-video variation
// of Fig. 3 comes from.
func NominalBitrateMbps(complexity float64) float64 {
	return 10 + 60*complexity
}
