package conformance

import (
	"math"
	"testing"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
	"evr/internal/ptlut"
)

// FuzzRenderFamily is the differential fuzzer over the render family. The
// corpus pins 64×64 viewports over 256×128 / 240×160 inputs; this drives
// random (projection, filter, pose, input dims, viewport dims, workers)
// tuples — including dims that are no multiple of any tile or band size —
// through every renderer and requires
//
//   - pt.Render == pt.RenderParallel == exact-mode ptlut pixels,
//   - pte.Render == pte.RenderParallel(n) pixels, and
//   - pte.Render and pte.RenderParallel(…, 1) leave equal Stats.
//
// Seeded with the 15 corpus poses.
func FuzzRenderFamily(f *testing.F) {
	for i, p := range corpusPoses() {
		f.Add(uint8(i), uint8(i/3), p.o.Yaw, p.o.Pitch, p.o.Roll,
			uint16(23+17*i), uint16(11+9*i), uint8(5+3*i), uint8(40-2*i), uint8(1+i%9))
	}
	f.Fuzz(func(t *testing.T, proj, filter uint8, yaw, pitch, roll float64, fullW, fullH uint16, vpW, vpH, workers uint8) {
		for _, a := range []float64{yaw, pitch, roll} {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				t.Skip("non-finite pose")
			}
		}
		o := geom.Orientation{
			Yaw:   math.Remainder(yaw, 2*math.Pi),
			Pitch: math.Remainder(pitch, math.Pi),
			Roll:  math.Remainder(roll, 2*math.Pi),
		}
		cfg := pt.Config{
			Projection: projection.Methods[int(proj)%len(projection.Methods)],
			Filter:     pt.Filter(filter % 2),
			Viewport: projection.Viewport{
				Width: 1 + int(vpW)%48, Height: 1 + int(vpH)%48,
				FOVX: fovRad, FOVY: fovRad,
			},
		}
		full := fuzzFrame(1+int(fullW)%160, 1+int(fullH)%96)
		n := 1 + int(workers)%9

		ref, err := pt.RenderChecked(cfg, full, o)
		if err != nil {
			t.Fatal(err)
		}
		par, err := pt.RenderParallelChecked(cfg, full, o, n)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Equal(par) {
			t.Errorf("pt.RenderParallel(%d) differs from pt.Render", n)
		}
		lr, err := ptlut.NewRenderer(cfg, nil, ptlut.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lout, err := lr.RenderChecked(full, o, n)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Equal(lout) {
			t.Errorf("exact ptlut render (%d workers) differs from pt.Render", n)
		}

		engine := func() *pte.Engine {
			e, err := pte.New(pte.DefaultConfig(cfg.Projection, cfg.Filter, cfg.Viewport))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		serial, one, many := engine(), engine(), engine()
		want := serial.Render(full, o)
		if !want.Equal(many.RenderParallel(full, o, n)) {
			t.Errorf("pte.RenderParallel(%d) differs from pte.Render", n)
		}
		if !want.Equal(one.RenderParallel(full, o, 1)) {
			t.Error("pte.RenderParallel(1) differs from pte.Render")
		}
		if serial.Stats() != one.Stats() {
			t.Errorf("pte.Render stats %+v != RenderParallel(1) stats %+v", serial.Stats(), one.Stats())
		}
		if t.Failed() {
			t.Logf("case: %v %v pose %+v, %dx%d over %dx%d", cfg.Projection, cfg.Filter, o, cfg.Viewport.Width, cfg.Viewport.Height, full.W, full.H)
		}
	})
}

// fuzzFrame is a deterministic high-entropy w×h panorama: neighboring
// texels differ, so a wrong tap or weight moves a byte.
func fuzzFrame(w, h int) *frame.Frame {
	f := frame.New(w, h)
	state := uint64(w)<<32 | uint64(h)
	for i := range f.Pix {
		f.Pix[i] = byte(splitmix64(&state) >> 56)
	}
	return f
}
