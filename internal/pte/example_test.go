package pte_test

import (
	"fmt"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
)

// Render one 360° frame on the simulated accelerator and compare against
// the full-precision reference.
func ExampleEngine_Render() {
	full := frame.New(128, 64)
	for y := 0; y < full.H; y++ {
		for x := 0; x < full.W; x++ {
			full.Set(x, y, byte(2*x), byte(4*y), 128)
		}
	}
	vp := projection.Viewport{Width: 32, Height: 32, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	cfg := pte.DefaultConfig(projection.ERP, pt.Bilinear, vp)
	engine, err := pte.New(cfg)
	if err != nil {
		panic(err)
	}
	o := geom.Orientation{Yaw: geom.Radians(20)}
	fov := engine.Render(full, o)
	ref := pt.Render(pt.Config{Projection: projection.ERP, Filter: pt.Bilinear, Viewport: vp}, full, o)
	fmt.Printf("fixed-point output within 1e-3 of reference: %v\n", frame.MAE(fov, ref) < 1e-3)
	fmt.Printf("accelerator power: %.0f mW\n", cfg.PowerW()*1e3)
	// Output:
	// fixed-point output within 1e-3 of reference: true
	// accelerator power: 194 mW
}
