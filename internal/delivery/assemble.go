package delivery

import (
	"fmt"

	"evr/internal/display"
	"evr/internal/frame"
	"evr/internal/tiling"
)

// Assemble reconstructs full frames from the low-res backfill stream and
// whatever tiles arrived. The low frames are upscaled to w×h to fill the
// whole canvas, then each fetched tile overwrites its rectangle. Tiles
// that were mispredicted, lost, or skipped simply stay at backfill
// quality — assembly never fails because a tile is missing.
func Assemble(g tiling.Grid, w, h int, low []*frame.Frame, tiles map[int][]*frame.Frame) ([]*frame.Frame, error) {
	if err := g.Validate(w, h); err != nil {
		return nil, err
	}
	if len(low) == 0 {
		return nil, fmt.Errorf("delivery: assemble needs a backfill stream")
	}
	// One scaler for the call: every backfill frame of a segment has the
	// same dimensions, so the taps are mapped once, not per frame.
	up, err := display.NewScaler(w, h, 1, 1)
	if err != nil {
		return nil, err
	}
	out := make([]*frame.Frame, len(low))
	for i, lf := range low {
		if lf == nil {
			return nil, fmt.Errorf("delivery: nil backfill frame %d", i)
		}
		if lf.W != low[0].W || lf.H != low[0].H {
			return nil, fmt.Errorf("delivery: backfill frame %d is %dx%d, frame 0 is %dx%d", i, lf.W, lf.H, low[0].W, low[0].H)
		}
		if out[i], err = up.Apply(lf); err != nil {
			return nil, fmt.Errorf("delivery: backfill frame %d: %w", i, err)
		}
	}
	for t, tf := range tiles {
		if t < 0 || t >= g.Tiles() {
			return nil, fmt.Errorf("delivery: tile %d outside %dx%d grid", t, g.Cols, g.Rows)
		}
		for i, f := range tf {
			if i >= len(out) {
				break // tile stream longer than backfill; extra frames undisplayable
			}
			if f == nil {
				continue
			}
			if err := g.Paste(out[i], f, t); err != nil {
				return nil, fmt.Errorf("delivery: frame %d: %w", i, err)
			}
		}
	}
	return out, nil
}
