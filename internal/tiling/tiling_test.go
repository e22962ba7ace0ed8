package tiling

import (
	"testing"

	"evr/internal/codec"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/scene"
)

func tilingViewport() projection.Viewport {
	return projection.Viewport{Width: 48, Height: 48, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
}

func sceneFrames(t *testing.T, n int) []*frame.Frame {
	t.Helper()
	v, _ := scene.ByName("RS")
	return v.RenderVideo(projection.ERP, 192, 96, n)
}

func TestGridValidate(t *testing.T) {
	if err := DefaultGrid().Validate(192, 96); err != nil {
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
	g := DefaultGrid()
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
	g := DefaultGrid()
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

func TestEncodeValidation(t *testing.T) {
	frames := sceneFrames(t, 2)
	cfg := codec.Config{GOP: 4, Quality: 6, SearchRange: 1}
	if _, err := Encode(cfg, nil, DefaultGrid(), 2); err == nil {
		t.Error("no frames accepted")
	}
	if _, err := Encode(cfg, frames, Grid{Cols: 5, Rows: 2}, 2); err == nil {
		t.Error("bad grid accepted")
	}
	if _, err := Encode(cfg, frames, DefaultGrid(), 5); err == nil {
		t.Error("incompatible low divisor accepted")
	}
}

func TestTiledStreamSavesBytes(t *testing.T) {
	frames := sceneFrames(t, 4)
	cfg := codec.Config{GOP: 4, Quality: 6, SearchRange: 1}
	s, err := Encode(cfg, frames, DefaultGrid(), 2)
	if err != nil {
		t.Fatal(err)
	}
	vis := s.Grid.Visible(tilingViewport(), geom.Orientation{}, projection.ERP)
	visBytes := s.VisibleBytes(vis)
	fullBytes := s.FullBytes()
	if visBytes >= fullBytes {
		t.Errorf("view-guided fetch %d not below full %d", visBytes, fullBytes)
	}
	ratio := float64(visBytes) / float64(fullBytes)
	if ratio < 0.2 || ratio > 0.95 {
		t.Errorf("tiled byte ratio %.2f outside the plausible band", ratio)
	}
	t.Logf("measured tiled byte ratio: %.2f (energy model assumes 0.45)", ratio)
}

func TestAssembleViewportQuality(t *testing.T) {
	// The PT viewport rendered from the assembled tiled panorama must be
	// close to the one rendered from the pristine frame — the in-sight
	// region came through at full quality.
	frames := sceneFrames(t, 2)
	cfg := codec.Config{GOP: 2, Quality: 4, SearchRange: 1}
	s, err := Encode(cfg, frames, DefaultGrid(), 2)
	if err != nil {
		t.Fatal(err)
	}
	o := geom.Orientation{}
	vp := tilingViewport()
	vis := s.Grid.Visible(vp, o, projection.ERP)
	assembled, err := s.Assemble(vis)
	if err != nil {
		t.Fatal(err)
	}
	if len(assembled) != 2 || assembled[0].W != 192 || assembled[0].H != 96 {
		t.Fatalf("assembled %d frames of %dx%d", len(assembled), assembled[0].W, assembled[0].H)
	}
	ptCfg := pt.Config{Projection: projection.ERP, Filter: pt.Bilinear, Viewport: vp}
	ref := pt.Render(ptCfg, frames[0], o)
	got := pt.Render(ptCfg, assembled[0], o)
	if psnr := frame.PSNR(ref, got); psnr < 25 {
		t.Errorf("viewport PSNR through tiled assembly = %.1f dB", psnr)
	}
}

func TestAssembleOutOfSightIsLowRes(t *testing.T) {
	// Regions backed only by the thumbnail must differ more from the
	// pristine frame than the in-sight tiles do.
	frames := sceneFrames(t, 1)
	cfg := codec.Config{GOP: 1, Quality: 4, SearchRange: 0}
	s, err := Encode(cfg, frames, DefaultGrid(), 4)
	if err != nil {
		t.Fatal(err)
	}
	o := geom.Orientation{}
	vis := s.Grid.Visible(tilingViewport(), o, projection.ERP)
	assembled, err := s.Assemble(vis)
	if err != nil {
		t.Fatal(err)
	}
	// Compare per-tile MAE between assembled and pristine.
	g := s.Grid
	var visErr, hidErr float64
	var visN, hidN int
	for t0 := 0; t0 < g.Tiles(); t0++ {
		a := g.Extract(assembled[0], t0)
		p := g.Extract(frames[0], t0)
		mae := frame.MAE(a, p)
		if vis[t0] {
			visErr += mae
			visN++
		} else {
			hidErr += mae
			hidN++
		}
	}
	if visN == 0 || hidN == 0 {
		t.Skip("degenerate visibility for this pose")
	}
	if hidErr/float64(hidN) <= visErr/float64(visN) {
		t.Errorf("hidden tiles (%.4f) should be worse than visible (%.4f)",
			hidErr/float64(hidN), visErr/float64(visN))
	}
}

func TestAssembleDecodesOnlyVisibleTiles(t *testing.T) {
	frames := sceneFrames(t, 1)
	cfg := codec.Config{GOP: 1, Quality: 6, SearchRange: 0}
	s, err := Encode(cfg, frames, DefaultGrid(), 2)
	if err != nil {
		t.Fatal(err)
	}
	none := make([]bool, s.Grid.Tiles())
	out, err := s.Assemble(none)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatal("no output")
	}
	// All-thumbnail output is still a full-size frame.
	if out[0].W != s.W || out[0].H != s.H {
		t.Error("assembled frame has wrong size")
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
