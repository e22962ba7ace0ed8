// Spherically-weighted quality for 360° content.
//
// A planar raster over- or under-represents parts of the viewing sphere:
// a rendered viewport gives its corner pixels less of the sphere than its
// center ones. Flat per-pixel MSE therefore mis-weights what a viewer sees.
// The metrics here weight each pixel by the solid angle its raster cell
// subtends (the WS-PSNR weighting), so scores reflect what a viewer can
// actually see. The SPORT truncation optimizer (internal/experiments)
// scores viewports with these tables; DESIGN.md §16 derives the weights.
package quality

import (
	"fmt"
	"math"

	"evr/internal/frame"
	"evr/internal/projection"
)

// WeightTable holds per-pixel solid-angle weights for one raster geometry.
// Weights are in steradians.
type WeightTable struct {
	W, H    int
	Weights []float64 // len W*H, row-major; steradians per pixel cell
	Lat     []float64 // len W*H pixel-center latitude (radians), or nil
	Sum     float64   // Σ Weights
}

// solidAngleRect is the antiderivative of the solid-angle density of the
// plane z=1 seen from the origin: the solid angle of the axis-aligned
// rectangle [0,s]×[0,t] is F(s,t) = atan(st/√(1+s²+t²)). A grid cell's
// solid angle follows by inclusion–exclusion over its corners, so a full
// grid telescopes exactly to the enclosing rectangle's angle, to rounding
// error, with no numerical integration.
func solidAngleRect(s, t float64) float64 {
	return math.Atan(s * t / math.Sqrt(1+s*s+t*t))
}

// cellSolidAngle returns the solid angle of the plane-z=1 cell
// [s1,s2]×[t1,t2].
func cellSolidAngle(s1, s2, t1, t2 float64) float64 {
	return solidAngleRect(s2, t2) - solidAngleRect(s1, t2) - solidAngleRect(s2, t1) + solidAngleRect(s1, t1)
}

// ViewportWeights returns the solid-angle table for a rendered viewport:
// each output pixel's cell on the image plane at focal distance 1, matching
// projection.Viewport's pixel-center sampling. Lat is nil — a viewport's
// latitude coverage depends on the head orientation, which the table does
// not know.
func ViewportWeights(vp projection.Viewport) *WeightTable {
	t := &WeightTable{W: vp.Width, H: vp.Height, Weights: make([]float64, vp.Width*vp.Height)}
	tx := math.Tan(vp.FOVX / 2)
	ty := math.Tan(vp.FOVY / 2)
	bx := make([]float64, vp.Width+1)
	for i := 0; i <= vp.Width; i++ {
		bx[i] = (2*float64(i)/float64(vp.Width) - 1) * tx
	}
	by := make([]float64, vp.Height+1)
	for j := 0; j <= vp.Height; j++ {
		by[j] = (1 - 2*float64(j)/float64(vp.Height)) * ty
	}
	for j := 0; j < vp.Height; j++ {
		for i := 0; i < vp.Width; i++ {
			wgt := cellSolidAngle(bx[i], bx[i+1], by[j+1], by[j])
			t.Weights[j*vp.Width+i] = wgt
			t.Sum += wgt
		}
	}
	return t
}

// check validates that both frames match the table geometry.
func (t *WeightTable) check(a, b *frame.Frame) error {
	if a == nil || b == nil {
		return fmt.Errorf("quality: nil frame")
	}
	if a.W != b.W || a.H != b.H {
		return fmt.Errorf("quality: dimension mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	if a.W != t.W || a.H != t.H {
		return fmt.Errorf("quality: frames %dx%d do not match %dx%d weight table", a.W, a.H, t.W, t.H)
	}
	return nil
}

// WeightedMSE returns the solid-angle-weighted mean squared error between
// two frames, averaged over the RGB channels. Identical frames return 0.
func (t *WeightTable) WeightedMSE(a, b *frame.Frame) (float64, error) {
	if err := t.check(a, b); err != nil {
		return 0, err
	}
	if t.Sum == 0 {
		return 0, fmt.Errorf("quality: degenerate weight table (zero total weight)")
	}
	var sse float64
	for p, wgt := range t.Weights {
		i := p * 3
		dr := float64(int(a.Pix[i]) - int(b.Pix[i]))
		dg := float64(int(a.Pix[i+1]) - int(b.Pix[i+1]))
		db := float64(int(a.Pix[i+2]) - int(b.Pix[i+2]))
		sse += wgt * (dr*dr + dg*dg + db*db)
	}
	return sse / 3 / t.Sum, nil
}

// WeightedPSNR returns the weighted PSNR in dB. Identical frames return
// +Inf, mirroring frame.PSNR.
func (t *WeightTable) WeightedPSNR(a, b *frame.Frame) (float64, error) {
	mse, err := t.WeightedMSE(a, b)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// BandError is one latitude band of a BandProfile.
type BandError struct {
	LatMinDeg, LatMaxDeg float64
	Weight               float64 // steradians covered by the band's pixels
	Pixels               int
	MSE                  float64 // weighted MSE within the band
	PSNR                 float64 // +Inf for error-free (or empty) bands
}

// BandProfile splits the table's pixels into equal latitude bands (south to
// north) and returns the weighted error of each — the per-band view of the
// error distribution that the SPORT optimizer allocates bits against. The
// table must carry latitudes: ViewportWeights leaves Lat nil, and a caller
// that knows the head orientation fills it.
func (t *WeightTable) BandProfile(a, b *frame.Frame, bands int) ([]BandError, error) {
	if err := t.check(a, b); err != nil {
		return nil, err
	}
	if bands < 1 {
		return nil, fmt.Errorf("quality: band profile needs ≥ 1 band, got %d", bands)
	}
	if t.Lat == nil {
		return nil, fmt.Errorf("quality: weight table has no latitude data")
	}
	type acc struct {
		sse, w float64
		px     int
	}
	accs := make([]acc, bands)
	for p, wgt := range t.Weights {
		band := int((t.Lat[p] + math.Pi/2) / math.Pi * float64(bands))
		band = clampInt(band, 0, bands-1)
		i := p * 3
		dr := float64(int(a.Pix[i]) - int(b.Pix[i]))
		dg := float64(int(a.Pix[i+1]) - int(b.Pix[i+1]))
		db := float64(int(a.Pix[i+2]) - int(b.Pix[i+2]))
		accs[band].sse += wgt * (dr*dr + dg*dg + db*db)
		accs[band].w += wgt
		accs[band].px++
	}
	out := make([]BandError, bands)
	for i := range out {
		out[i] = BandError{
			LatMinDeg: -90 + 180*float64(i)/float64(bands),
			LatMaxDeg: -90 + 180*float64(i+1)/float64(bands),
			Weight:    accs[i].w,
			Pixels:    accs[i].px,
			PSNR:      math.Inf(1),
		}
		if accs[i].w > 0 {
			out[i].MSE = accs[i].sse / 3 / accs[i].w
			if out[i].MSE > 0 {
				out[i].PSNR = 10 * math.Log10(255*255/out[i].MSE)
			}
		}
	}
	return out, nil
}
