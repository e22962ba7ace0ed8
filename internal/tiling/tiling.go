// Package tiling is the tile-grid geometry of view-guided tiled streaming —
// the related-work class the paper contrasts EVR with (§9: Zare et al., Qian
// et al., Rubiks). A panoramic frame splits into a tile grid; tiles
// intersecting the user's viewport stream at full quality while a
// low-resolution backfill of the whole frame backs the out-of-sight regions.
// The client reassembles a full panorama and still runs the projective
// transformation — which is exactly why tiling saves bandwidth but not the VR
// tax. Ingest cuts and encodes the tiles (server.ingestTiles) and the client
// reassembles them (delivery.Assemble); both go through Grid.
package tiling

import (
	"fmt"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
)

// Grid divides a panorama into Cols×Rows tiles.
type Grid struct {
	Cols, Rows int
}

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
