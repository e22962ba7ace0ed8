// Package tiling implements view-guided tiled streaming — the related-work
// class the paper contrasts EVR with (§9: Zare et al., Qian et al., Rubiks).
// A panoramic frame splits into a tile grid; tiles intersecting the user's
// viewport stream at full quality while a low-resolution thumbnail of the
// whole frame backs the out-of-sight regions. The client reassembles a full
// panorama and still runs the projective transformation — which is exactly
// why tiling saves bandwidth but not the VR tax.
//
// This is the pixel-exact counterpart of the behavioral client.Tiled
// variant: every tile is a real codec bitstream, and the measured byte
// ratios ground the energy model's TiledByteRatio constant.
package tiling

import (
	"fmt"

	"evr/internal/codec"
	"evr/internal/display"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
)

// Grid divides a panorama into Cols×Rows tiles.
type Grid struct {
	Cols, Rows int
}

// DefaultGrid returns the common 4×2 tiling.
func DefaultGrid() Grid { return Grid{Cols: 4, Rows: 2} }

// Validate reports whether the grid can tile a frame of the given size into
// codec-codable tiles.
func (g Grid) Validate(frameW, frameH int) error {
	if g.Cols < 1 || g.Rows < 1 {
		return fmt.Errorf("tiling: grid %dx%d must be positive", g.Cols, g.Rows)
	}
	if frameW%g.Cols != 0 || frameH%g.Rows != 0 {
		return fmt.Errorf("tiling: frame %dx%d not divisible by grid %dx%d", frameW, frameH, g.Cols, g.Rows)
	}
	if (frameW/g.Cols)%8 != 0 || (frameH/g.Rows)%8 != 0 {
		return fmt.Errorf("tiling: tile %dx%d not a multiple of the codec block", frameW/g.Cols, frameH/g.Rows)
	}
	return nil
}

// Tiles returns the tile count.
func (g Grid) Tiles() int { return g.Cols * g.Rows }

// Visible reports, for each tile, whether any part of it falls inside the
// viewport at orientation o (sampled on a 4×4 lattice per tile, plus an
// angular margin via the viewport's own FOV).
func (g Grid) Visible(vp projection.Viewport, o geom.Orientation, m projection.Method) []bool {
	out := make([]bool, g.Tiles())
	const samples = 4
	for ty := 0; ty < g.Rows; ty++ {
		for tx := 0; tx < g.Cols; tx++ {
			idx := ty*g.Cols + tx
			for sy := 0; sy < samples && !out[idx]; sy++ {
				for sx := 0; sx < samples; sx++ {
					u := (float64(tx) + (float64(sx)+0.5)/samples) / float64(g.Cols)
					v := (float64(ty) + (float64(sy)+0.5)/samples) / float64(g.Rows)
					dir := projection.ToSphere(m, u, v)
					if vp.Contains(o, dir) {
						out[idx] = true
						break
					}
				}
			}
		}
	}
	return out
}

// Center returns the unit gaze direction at a tile's planar center — the
// distance anchor per-tile quality selection orders demotions by.
func (g Grid) Center(tile int, m projection.Method) geom.Vec3 {
	tx, ty := tile%g.Cols, tile/g.Cols
	u := (float64(tx) + 0.5) / float64(g.Cols)
	v := (float64(ty) + 0.5) / float64(g.Rows)
	return projection.ToSphere(m, u, v)
}

// Extract copies one tile out of a frame.
func (g Grid) Extract(f *frame.Frame, tile int) *frame.Frame {
	tw, th := f.W/g.Cols, f.H/g.Rows
	tx, ty := tile%g.Cols, tile/g.Cols
	out := frame.New(tw, th)
	for y := 0; y < th; y++ {
		for x := 0; x < tw; x++ {
			r, gg, b := f.At(tx*tw+x, ty*th+y)
			out.Set(x, y, r, gg, b)
		}
	}
	return out
}

// Paste is Extract's inverse, the one canvas-composition step of every tiled
// client: it copies a tile-sized frame over tile's rectangle of canvas, row by
// row.
func (g Grid) Paste(canvas, tileFrame *frame.Frame, tile int) error {
	if tile < 0 || tile >= g.Tiles() {
		return fmt.Errorf("tiling: tile %d outside %dx%d grid", tile, g.Cols, g.Rows)
	}
	tw, th := canvas.W/g.Cols, canvas.H/g.Rows
	if tileFrame.W != tw || tileFrame.H != th || len(tileFrame.Pix) < tw*th*3 {
		return fmt.Errorf("tiling: tile %d is %dx%d (%d bytes), rect wants %dx%d", tile, tileFrame.W, tileFrame.H, len(tileFrame.Pix), tw, th)
	}
	x, y := (tile%g.Cols)*tw, (tile/g.Cols)*th
	for row := 0; row < th; row++ {
		copy(canvas.Pix[((y+row)*canvas.W+x)*3:][:tw*3], tileFrame.Pix[row*tw*3:][:tw*3])
	}
	return nil
}

// Stream is a tiled encoding of a frame sequence: one high-quality
// bitstream per tile plus one low-resolution full-frame bitstream.
type Stream struct {
	Grid   Grid
	W, H   int // full-frame dimensions
	Tiles  []*codec.Bitstream
	Low    *codec.Bitstream
	LowDiv int // linear downscale factor of the low stream
}

// Encode builds a tiled stream. lowDiv is the linear downscale of the
// backing thumbnail (e.g. 4 → 1/16 of the pixels).
func Encode(cfg codec.Config, frames []*frame.Frame, g Grid, lowDiv int) (*Stream, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("tiling: no frames")
	}
	w, h := frames[0].W, frames[0].H
	if err := g.Validate(w, h); err != nil {
		return nil, err
	}
	if lowDiv < 1 || (w/lowDiv)%8 != 0 || (h/lowDiv)%8 != 0 {
		return nil, fmt.Errorf("tiling: low-stream divisor %d incompatible with %dx%d", lowDiv, w, h)
	}
	s := &Stream{Grid: g, W: w, H: h, LowDiv: lowDiv}
	// Per-tile high-quality streams.
	for t := 0; t < g.Tiles(); t++ {
		var tileFrames []*frame.Frame
		for _, f := range frames {
			tileFrames = append(tileFrames, g.Extract(f, t))
		}
		bs, err := codec.EncodeSequence(cfg, tileFrames)
		if err != nil {
			return nil, fmt.Errorf("tiling: encoding tile %d: %w", t, err)
		}
		s.Tiles = append(s.Tiles, bs)
	}
	// Low-resolution backing stream.
	down, err := display.NewScaler(w/lowDiv, h/lowDiv, 1, 1)
	if err != nil {
		return nil, err
	}
	var lowFrames []*frame.Frame
	for _, f := range frames {
		lf, err := down.Apply(f)
		if err != nil {
			return nil, err
		}
		lowFrames = append(lowFrames, lf)
	}
	low, err := codec.EncodeSequence(cfg, lowFrames)
	if err != nil {
		return nil, fmt.Errorf("tiling: encoding low stream: %w", err)
	}
	s.Low = low
	return s, nil
}

// FullBytes returns the total size of all tile streams plus the thumbnail —
// what a non-view-guided client would fetch.
func (s *Stream) FullBytes() int {
	n := s.Low.TotalBytes()
	for _, t := range s.Tiles {
		n += t.TotalBytes()
	}
	return n
}

// VisibleBytes returns the bytes a view-guided client fetches for the given
// visibility mask: visible tiles plus the thumbnail.
func (s *Stream) VisibleBytes(visible []bool) int {
	n := s.Low.TotalBytes()
	for i, t := range s.Tiles {
		if i < len(visible) && visible[i] {
			n += t.TotalBytes()
		}
	}
	return n
}

// Assemble reconstructs full panoramas from the visible tiles, filling
// out-of-sight regions from the upscaled thumbnail.
func (s *Stream) Assemble(visible []bool) ([]*frame.Frame, error) {
	lowFrames, err := codec.DecodeSequence(s.Low)
	if err != nil {
		return nil, fmt.Errorf("tiling: decoding low stream: %w", err)
	}
	// Decode only the visible tiles.
	tileFrames := make([][]*frame.Frame, s.Grid.Tiles())
	for i, bs := range s.Tiles {
		if i < len(visible) && visible[i] {
			tf, err := codec.DecodeSequence(bs)
			if err != nil {
				return nil, fmt.Errorf("tiling: decoding tile %d: %w", i, err)
			}
			tileFrames[i] = tf
		}
	}
	up, err := display.NewScaler(s.W, s.H, 1, 1)
	if err != nil {
		return nil, err
	}
	var out []*frame.Frame
	for fi, lf := range lowFrames {
		base, err := up.Apply(lf)
		if err != nil {
			return nil, err
		}
		for t, tf := range tileFrames {
			if tf == nil || fi >= len(tf) {
				continue
			}
			if err := s.Grid.Paste(base, tf[fi], t); err != nil {
				return nil, err
			}
		}
		out = append(out, base)
	}
	return out, nil
}
