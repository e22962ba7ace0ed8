package tiling

import (
	"testing"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/scene"
)

// testGrid is the common 4×2 tiling.
var testGrid = Grid{Cols: 4, Rows: 2}

func tilingViewport() projection.Viewport {
	return projection.Viewport{Width: 48, Height: 48, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
}

func sceneFrames(t *testing.T, n int) []*frame.Frame {
	t.Helper()
	v, _ := scene.ByName("RS")
	return v.RenderVideo(projection.ERP, 192, 96, n)
}

func TestGridValidate(t *testing.T) {
	if err := testGrid.Validate(192, 96); err != nil {
		t.Fatal(err)
	}
	if err := (Grid{Cols: 0, Rows: 1}).Validate(192, 96); err == nil {
		t.Error("zero cols accepted")
	}
	if err := (Grid{Cols: 5, Rows: 2}).Validate(192, 96); err == nil {
		t.Error("non-divisible grid accepted")
	}
	if err := (Grid{Cols: 16, Rows: 2}).Validate(192, 96); err == nil {
		t.Error("sub-block tiles accepted")
	}
}

func TestVisibility(t *testing.T) {
	g := testGrid
	vp := tilingViewport()
	// Looking forward (+Z = center of the ERP frame): the central tiles
	// must be visible, the antipodal ones not all.
	vis := g.Visible(vp, geom.Orientation{}, projection.ERP)
	if len(vis) != 8 {
		t.Fatalf("visibility mask has %d entries", len(vis))
	}
	// Tile columns 1 and 2 straddle the frame center.
	if !vis[1] && !vis[2] && !vis[5] && !vis[6] {
		t.Error("central tiles not visible when looking forward")
	}
	count := 0
	for _, v := range vis {
		if v {
			count++
		}
	}
	if count == 0 || count == len(vis) {
		t.Errorf("visibility mask degenerate: %v", vis)
	}
	// Turning around changes the mask.
	back := g.Visible(vp, geom.Orientation{Yaw: geom.Radians(180)}, projection.ERP)
	same := true
	for i := range vis {
		if vis[i] != back[i] {
			same = false
		}
	}
	if same {
		t.Error("yaw 180° did not change visibility")
	}
}

// TestVisibilitySeamStraddle pins the ERP longitude-seam class that bit the
// renderer in PR 1: a viewport looking straight backward straddles ±180°,
// so tiles on BOTH vertical edges of the grid must be visible while the
// front-center columns stay invisible in the equatorial rows.
func TestVisibilitySeamStraddle(t *testing.T) {
	g := Grid{Cols: 8, Rows: 4}
	if err := g.Validate(128, 64); err != nil {
		t.Fatal(err)
	}
	vp := projection.Viewport{Width: 32, Height: 32, FOVX: geom.Radians(90), FOVY: geom.Radians(90)}
	vis := g.Visible(vp, geom.Orientation{Yaw: geom.Radians(180)}, projection.ERP)

	// Equatorial rows (1 and 2) of the leftmost and rightmost columns
	// cover yaw near -180° and +180° — the same gaze direction. Both
	// sides of the seam must be marked.
	for _, row := range []int{1, 2} {
		left := row*g.Cols + 0
		right := row*g.Cols + (g.Cols - 1)
		if !vis[left] {
			t.Errorf("row %d: left seam tile %d invisible: %v", row, left, vis)
		}
		if !vis[right] {
			t.Errorf("row %d: right seam tile %d invisible: %v", row, right, vis)
		}
		// The forward-facing center columns are ~180° away from the
		// gaze and far outside a 90° FOV.
		for _, col := range []int{3, 4} {
			if vis[row*g.Cols+col] {
				t.Errorf("row %d: antipodal tile %d visible: %v", row, row*g.Cols+col, vis)
			}
		}
	}
}

func TestTileCenter(t *testing.T) {
	g := testGrid
	// The tile centers of the middle columns flank the forward axis; both
	// must land in the front hemisphere (+Z half-space) on ERP.
	for _, tile := range []int{1, 2, 5, 6} {
		c := g.Center(tile, projection.ERP)
		if c.Z <= 0 {
			t.Errorf("tile %d center %+v not in front hemisphere", tile, c)
		}
	}
	// Edge-column centers point backward.
	for _, tile := range []int{0, 3} {
		c := g.Center(tile, projection.ERP)
		if c.Z >= 0 {
			t.Errorf("tile %d center %+v not in back hemisphere", tile, c)
		}
	}
}

// TestPasteInvertsExtract: pasting every extracted tile onto a blank canvas
// rebuilds the frame, and a tile of the wrong shape or index is an error.
func TestPasteInvertsExtract(t *testing.T) {
	g := Grid{Cols: 4, Rows: 2}
	full := sceneFrames(t, 1)[0]
	canvas := frame.New(full.W, full.H)
	for tile := 0; tile < g.Tiles(); tile++ {
		if err := g.Paste(canvas, g.Extract(full, tile), tile); err != nil {
			t.Fatal(err)
		}
	}
	if !canvas.Equal(full) {
		t.Error("pasting the extracted tiles did not rebuild the frame")
	}
	tw, th := full.W/g.Cols, full.H/g.Rows
	if err := g.Paste(canvas, frame.New(tw, th), g.Tiles()); err == nil {
		t.Error("tile index outside the grid accepted")
	}
	if err := g.Paste(canvas, frame.New(tw-1, th), 0); err == nil {
		t.Error("tile of the wrong size accepted")
	}
	if err := g.Paste(canvas, &frame.Frame{W: tw, H: th, Pix: make([]byte, 5)}, 0); err == nil {
		t.Error("short-buffered tile accepted")
	}
}
