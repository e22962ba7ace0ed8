package scene

import (
	"math"
	"testing"

	"evr/internal/geom"
	"evr/internal/projection"
)

// rasterProjections are the projections a Raster is checked in.
var rasterProjections = []projection.Method{projection.ERP, projection.CMP, projection.EAC}

// checkRaster compares every pixel of r.Frame(t) with ColorAt at the
// pixel's ToSphere direction and reports the first mismatch.
func checkRaster(t *testing.T, v VideoSpec, m projection.Method, w, h int, r *Raster, tt float64) {
	t.Helper()
	f := r.Frame(tt)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dir := projection.ToSphere(m, (float64(x)+0.5)/float64(w), (float64(y)+0.5)/float64(h))
			wr, wg, wb := v.ColorAt(tt, dir)
			if gr, gg, gb := f.At(x, y); gr != wr || gg != wg || gb != wb {
				t.Fatalf("%s %v %dx%d t=%v pixel (%d,%d) = %d,%d,%d, ColorAt %d,%d,%d",
					v.Name, m, w, h, tt, x, y, gr, gg, gb, wr, wg, wb)
			}
		}
	}
}

// TestRasterMatchesColorAt pins the raster renderer to the per-direction
// reference byte for byte: every video, projection, a spread of sizes and
// times including the first and last frame.
func TestRasterMatchesColorAt(t *testing.T) {
	vids := Catalog()
	for _, p := range PowerSet() {
		if _, ok := ByName(p.Name); !ok {
			t.Fatalf("power-set video %s is not in the catalog", p.Name)
		}
	}
	sizes := [][2]int{{320, 160}, {192, 96}, {96, 72}, {128, 64}}
	for _, v := range vids {
		times := []float64{0, 1.0 / 3, 7.1, float64(v.Frames()-1) / float64(v.FPS)}
		for _, m := range rasterProjections {
			for _, sz := range sizes {
				r := v.Raster(m, sz[0], sz[1])
				for _, tt := range times {
					checkRaster(t, v, m, sz[0], sz[1], r, tt)
				}
			}
		}
	}
}

func TestRenderVideoMatchesRenderFrame(t *testing.T) {
	v, _ := ByName("Paris")
	fs := v.RenderVideo(projection.EAC, 48, 32, 4)
	for i, f := range fs {
		if !f.Equal(v.RenderFrame(float64(i)/float64(v.FPS), projection.EAC, 48, 32)) {
			t.Fatalf("RenderVideo frame %d differs from RenderFrame", i)
		}
	}
}

// boundarySeeds returns directions within 1e-12 rad of every object's cap
// and rim boundary at time tt, on both sides: their dot products fall
// inside the guard band, so they take the exact angle test.
func boundarySeeds(v VideoSpec, tt float64) []geom.Vec3 {
	var out []geom.Vec3
	for _, o := range v.Objects {
		c := geom.FromCartesian(o.Center(tt))
		for _, ang := range []float64{o.Radius, o.Radius * 0.8} {
			for _, eps := range []float64{-1e-12, 0, 1e-12} {
				// Step in pitch away from the nearer pole so the offset is
				// the angle to the centre.
				dp := ang + eps
				if c.Phi > 0 {
					dp = -dp
				}
				out = append(out, geom.Spherical{Theta: c.Theta, Phi: c.Phi + dp}.ToCartesian())
			}
		}
	}
	return out
}

func TestBoundaryDirectionsMatchColorAt(t *testing.T) {
	banded := 0
	for _, v := range Catalog() {
		for _, tt := range []float64{0, 2.5} {
			in := v.At(tt)
			for _, dir := range boundarySeeds(v, tt) {
				for _, c := range in.caps {
					if d := dir.Dot(c.center); math.Abs(d-c.cosR) <= guardBand || math.Abs(d-c.cosRim) <= guardBand {
						banded++
					}
				}
				gr, gg, gb := in.Color(dir)
				wr, wg, wb := v.ColorAt(tt, dir)
				if gr != wr || gg != wg || gb != wb {
					t.Fatalf("%s t=%v dir %v: Color %d,%d,%d, ColorAt %d,%d,%d", v.Name, tt, dir, gr, gg, gb, wr, wg, wb)
				}
			}
		}
	}
	if banded == 0 {
		t.Fatal("no boundary direction fell inside the guard band")
	}
}

// FuzzRasterMatchesColorAt renders a raster of a fuzzed size and time and
// compares it with ColorAt pixel by pixel, and compares Instant.Color with
// ColorAt along one fuzzed direction. The seeds put that direction within
// 1e-12 rad of each cap and rim boundary, forcing the guard-band path.
func FuzzRasterMatchesColorAt(f *testing.F) {
	for vi, v := range Catalog() {
		tt := 1.5
		for _, d := range boundarySeeds(v, tt) {
			f.Add(uint8(vi), tt, uint8(vi%3), uint8(24), uint8(12), d.X, d.Y, d.Z)
		}
	}
	f.Add(uint8(0), 59.9, uint8(2), uint8(1), uint8(1), 0.0, 0.0, 1.0)
	f.Add(uint8(2), -3.0, uint8(1), uint8(64), uint8(64), math.NaN(), 1.0, 0.0)
	f.Fuzz(func(t *testing.T, vi uint8, tt float64, mi, w, h uint8, x, y, z float64) {
		cat := Catalog()
		v := cat[int(vi)%len(cat)]
		m := rasterProjections[int(mi)%len(rasterProjections)]
		fw, fh := int(w%64)+1, int(h%64)+1
		checkRaster(t, v, m, fw, fh, v.Raster(m, fw, fh), tt)
		in := v.At(tt)
		dir := geom.Vec3{X: x, Y: y, Z: z}
		gr, gg, gb := in.Color(dir)
		wr, wg, wb := v.ColorAt(tt, dir)
		if gr != wr || gg != wg || gb != wb {
			t.Fatalf("%s t=%v dir %v: Color %d,%d,%d, ColorAt %d,%d,%d", v.Name, tt, dir, gr, gg, gb, wr, wg, wb)
		}
	})
}

// BenchmarkRaster maps one 320×160 ERP raster of RS: the cost an ingest or
// a RenderFrame call pays once per geometry.
func BenchmarkRaster(b *testing.B) {
	v, _ := ByName("RS")
	for i := 0; i < b.N; i++ {
		v.Raster(projection.ERP, 320, 160)
	}
}

// BenchmarkRasterFrame renders one 320×160 ERP frame of RS from a mapped
// raster: the per-frame cost of the ingest's scene stage.
func BenchmarkRasterFrame(b *testing.B) {
	v, _ := ByName("RS")
	r := v.Raster(projection.ERP, 320, 160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Frame(float64(i%v.Frames()) / float64(v.FPS))
	}
}
