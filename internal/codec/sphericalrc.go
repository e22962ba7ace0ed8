package codec

import (
	"fmt"
	"math"

	"evr/internal/frame"
)

// Spherically-weighted bit allocation (the SPORT direction, see DESIGN.md
// §16): an ERP panorama dedicates as many raster rows to the poles as to
// the equator, but a polar row covers a sliver of the viewing sphere. A
// flat per-frame byte budget therefore spends bits where no viewer can see
// them. SphericalAllocate splits the frame into latitude bands and gives
// each band its own byte target leaning toward the spherical area the band
// covers, steering bits toward the equator.

// BandAllocation is one latitude band of a spherical bit-allocation split.
type BandAllocation struct {
	Y0, Y1      int     // raster rows [Y0, Y1), block-aligned
	AreaFrac    float64 // fraction of the sphere the band covers
	TargetBytes int     // per-frame byte budget for the band
}

// areaBlend sets how far the weighted byte split leans from the raster-row
// share toward the pure spherical-area share. Fully area-proportional
// allocation (blend 1) over-steers: strip rate-distortion curves are
// convex, so starving a polar cap to its area share pushes its quantizer
// into the steep distortion region and loses more weighted quality at the
// poles than the equator gains. Halfway captures most of the equator gain
// while keeping every band on the shallow part of its R-D curve.
const areaBlend = 0.5

// SphericalAllocate splits an h-row ERP frame into latitude bands with
// per-band byte targets. With weighted=true targets lean toward each
// band's spherical area (sin-latitude difference, mixed with the raster
// share by areaBlend); with weighted=false they are proportional to raster
// rows, reproducing a flat per-frame budget band by band. Band
// boundaries are aligned to the codec's 8-pixel block rows; targets use
// largest-remainder rounding so they sum exactly to targetBytes.
func SphericalAllocate(h, bands, targetBytes int, weighted bool) ([]BandAllocation, error) {
	if h < blockSize || h%blockSize != 0 {
		return nil, fmt.Errorf("codec: frame height %d not a positive multiple of the %d-pixel block size", h, blockSize)
	}
	if bands < 1 {
		return nil, fmt.Errorf("codec: need ≥ 1 band, got %d", bands)
	}
	blocks := h / blockSize
	if bands > blocks {
		return nil, fmt.Errorf("codec: %d bands exceed the %d block rows of a %d-row frame", bands, blocks, h)
	}
	if targetBytes < bands {
		return nil, fmt.Errorf("codec: target %d bytes cannot cover %d bands", targetBytes, bands)
	}
	out := make([]BandAllocation, bands)
	share := make([]float64, bands)
	for i := range out {
		y0 := i * blocks / bands * blockSize
		y1 := (i + 1) * blocks / bands * blockSize
		rowFrac := float64(y1-y0) / float64(h)
		// ERP row y sits at latitude φ(y) = π/2 − πy/h; the band's
		// share of the sphere is (sin φ(y0) − sin φ(y1)) / 2.
		areaFrac := (math.Cos(math.Pi*float64(y0)/float64(h)) - math.Cos(math.Pi*float64(y1)/float64(h))) / 2
		share[i] = rowFrac
		if weighted {
			share[i] = float64((1-areaBlend)*rowFrac) + float64(areaBlend*areaFrac)
		}
		out[i] = BandAllocation{Y0: y0, Y1: y1, AreaFrac: areaFrac}
	}
	// Largest-remainder rounding: floor everything, then hand the leftover
	// bytes to the largest fractional parts (ties to the earlier band, so
	// the split is deterministic). Every band keeps at least one byte.
	assigned := 0
	rem := make([]float64, bands)
	for i := range out {
		exact := float64(float64(targetBytes) * share[i])
		t := int(exact)
		if t < 1 {
			t = 1
		}
		rem[i] = exact - float64(t)
		out[i].TargetBytes = t
		assigned += t
	}
	for assigned < targetBytes {
		best := 0
		for i := 1; i < bands; i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		out[best].TargetBytes++
		rem[best] = math.Inf(-1)
		assigned++
	}
	for assigned > targetBytes {
		// Over-assignment can only come from the ≥1-byte floors; shave the
		// richest band.
		best := 0
		for i := 1; i < bands; i++ {
			if out[i].TargetBytes > out[best].TargetBytes {
				best = i
			}
		}
		if out[best].TargetBytes <= 1 {
			break
		}
		out[best].TargetBytes--
		assigned--
	}
	return out, nil
}

// BandedBitstream is the output of banded encoding (EncodeSequenceSphericalQ):
// one independent bitstream per latitude band, decodable back into full
// frames with Decode.
type BandedBitstream struct {
	W, H    int
	Bands   []BandAllocation
	Streams []*Bitstream
}

// TotalBytes returns the compressed payload size across all bands.
func (bb *BandedBitstream) TotalBytes() int {
	var n int
	for _, s := range bb.Streams {
		n += s.TotalBytes()
	}
	return n
}

// bandStrip aliases the rows [y0, y1) of f as a standalone frame sharing
// the backing pixel storage (rows are contiguous), so banded encoding
// copies nothing.
func bandStrip(f *frame.Frame, y0, y1 int) *frame.Frame {
	return &frame.Frame{W: f.W, H: y1 - y0, Pix: f.Pix[y0*f.W*3 : y1*f.W*3]}
}

// EncodeSequenceSphericalQ encodes frames as independent latitude-band
// strips with a fixed quantizer per band (len(qs) bands, top to bottom).
// It is the encode primitive a two-pass spherical allocator drives once it
// has chosen per-band quantizers against a byte budget; there is no rate
// feedback. The returned allocation's TargetBytes carry the realized
// per-frame strip bytes (rounded up) rather than a requested budget.
func EncodeSequenceSphericalQ(cfg Config, frames []*frame.Frame, qs []int) (*BandedBitstream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("codec: no frames")
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("codec: no band quantizers")
	}
	w, h := frames[0].W, frames[0].H
	for i, f := range frames {
		if f.W != w || f.H != h {
			return nil, fmt.Errorf("codec: frame %d is %dx%d, want %dx%d", i, f.W, f.H, w, h)
		}
	}
	// The dummy byte target only shapes TargetBytes, which is overwritten
	// with realized sizes below; band geometry ignores it.
	alloc, err := SphericalAllocate(h, len(qs), len(qs), true)
	if err != nil {
		return nil, err
	}
	bb := &BandedBitstream{W: w, H: h, Bands: alloc}
	for i, band := range alloc {
		c := cfg
		c.Quality = qs[i]
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("codec: band %d: %w", i, err)
		}
		strips := make([]*frame.Frame, len(frames))
		for j, f := range frames {
			strips[j] = bandStrip(f, band.Y0, band.Y1)
		}
		bs, err := EncodeSequence(c, strips)
		if err != nil {
			return nil, fmt.Errorf("codec: band %d rows [%d,%d): %w", i, band.Y0, band.Y1, err)
		}
		bb.Streams = append(bb.Streams, bs)
		bb.Bands[i].TargetBytes = (bs.TotalBytes() + len(frames) - 1) / len(frames)
	}
	return bb, nil
}

// Decode reassembles the banded bitstream into full frames.
func (bb *BandedBitstream) Decode() ([]*frame.Frame, error) {
	if len(bb.Streams) != len(bb.Bands) {
		return nil, fmt.Errorf("codec: %d streams for %d bands", len(bb.Streams), len(bb.Bands))
	}
	if len(bb.Streams) == 0 {
		return nil, fmt.Errorf("codec: empty banded bitstream")
	}
	var out []*frame.Frame
	for i, bs := range bb.Streams {
		band := bb.Bands[i]
		strips, err := DecodeSequence(bs)
		if err != nil {
			return nil, fmt.Errorf("codec: band %d: %w", i, err)
		}
		if out == nil {
			out = make([]*frame.Frame, len(strips))
			for j := range out {
				out[j] = frame.New(bb.W, bb.H)
			}
		}
		if len(strips) != len(out) {
			return nil, fmt.Errorf("codec: band %d has %d frames, want %d", i, len(strips), len(out))
		}
		for j, s := range strips {
			if s.W != bb.W || s.H != band.Y1-band.Y0 {
				return nil, fmt.Errorf("codec: band %d frame %d is %dx%d, want %dx%d",
					i, j, s.W, s.H, bb.W, band.Y1-band.Y0)
			}
			copy(out[j].Pix[band.Y0*bb.W*3:band.Y1*bb.W*3], s.Pix)
		}
	}
	return out, nil
}
