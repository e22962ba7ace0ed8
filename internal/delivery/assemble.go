package delivery

import (
	"fmt"

	"evr/internal/display"
	"evr/internal/frame"
	"evr/internal/tiling"
)

// Assembler reconstructs tiled panoramas one frame at a time into a canvas
// the caller owns: the low-res backfill frame is upscaled to fill the whole
// canvas, then each arrived tile overwrites its rectangle. Tiles that were
// mispredicted, lost, or skipped simply stay at backfill quality — assembly
// never fails because a tile is missing. Build one per session: it holds the
// backfill scaler, whose taps are mapped once, so a frame allocates nothing.
// Like the scaler, an Assembler is not safe for concurrent use.
type Assembler struct {
	grid tiling.Grid
	up   *display.Scaler
}

// NewAssembler returns an assembler of w×h panoramas cut by g.
func NewAssembler(g tiling.Grid, w, h int) (*Assembler, error) {
	if err := g.Validate(w, h); err != nil {
		return nil, err
	}
	up, err := display.NewScaler(w, h)
	if err != nil {
		return nil, err
	}
	return &Assembler{grid: g, up: up}, nil
}

// Frame fills dst, a w×h canvas, from one backfill frame and tiles[t], this
// frame of tile t (nil: tile t did not arrive). tiles may be shorter than the
// grid, never longer.
func (a *Assembler) Frame(dst, low *frame.Frame, tiles []*frame.Frame) error {
	if len(tiles) > a.grid.Tiles() {
		return fmt.Errorf("delivery: %d tile frames for a %dx%d grid", len(tiles), a.grid.Cols, a.grid.Rows)
	}
	if err := a.up.ApplyInto(dst, low); err != nil {
		return fmt.Errorf("delivery: backfill: %w", err)
	}
	for t, tf := range tiles {
		if tf == nil {
			continue
		}
		if err := a.grid.Paste(dst, tf, t); err != nil {
			return fmt.Errorf("delivery: %w", err)
		}
	}
	return nil
}

// Assemble reconstructs a segment of full frames from the low-res backfill
// stream and whatever tile streams arrived, one Assembler.Frame per backfill
// frame. A tile stream shorter than the backfill leaves its rectangle at
// backfill quality once it runs out; frames past the backfill are
// undisplayable and ignored.
func Assemble(g tiling.Grid, w, h int, low []*frame.Frame, tiles map[int][]*frame.Frame) ([]*frame.Frame, error) {
	a, err := NewAssembler(g, w, h)
	if err != nil {
		return nil, err
	}
	if len(low) == 0 {
		return nil, fmt.Errorf("delivery: assemble needs a backfill stream")
	}
	for t := range tiles {
		if t < 0 || t >= g.Tiles() {
			return nil, fmt.Errorf("delivery: tile %d outside %dx%d grid", t, g.Cols, g.Rows)
		}
	}
	perTile := make([]*frame.Frame, g.Tiles())
	out := make([]*frame.Frame, len(low))
	for i, lf := range low {
		if lf == nil {
			return nil, fmt.Errorf("delivery: nil backfill frame %d", i)
		}
		if lf.W != low[0].W || lf.H != low[0].H {
			return nil, fmt.Errorf("delivery: backfill frame %d is %dx%d, frame 0 is %dx%d", i, lf.W, lf.H, low[0].W, low[0].H)
		}
		clear(perTile)
		for t, tf := range tiles {
			if i < len(tf) {
				perTile[t] = tf[i]
			}
		}
		out[i] = frame.New(w, h)
		if err := a.Frame(out[i], lf, perTile); err != nil {
			return nil, fmt.Errorf("delivery: frame %d: %w", i, err)
		}
	}
	return out, nil
}
