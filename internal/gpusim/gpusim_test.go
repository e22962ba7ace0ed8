package gpusim

import (
	"math"
	"testing"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
)

func testPTConfig() pt.Config {
	return pt.Config{
		Projection: projection.ERP,
		Filter:     pt.Bilinear,
		Viewport:   projection.Viewport{Width: 40, Height: 40, FOVX: geom.Radians(110), FOVY: geom.Radians(110)},
	}
}

func grad(w, h int) *frame.Frame {
	f := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Set(x, y, byte(x*255/w), byte(y*255/h), 99)
		}
	}
	return f
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig(testPTConfig()).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig(testPTConfig())
	bad.ActivePowerW = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero power accepted")
	}
	bad = DefaultConfig(testPTConfig())
	bad.CacheWays = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ways accepted")
	}
	bad = DefaultConfig(testPTConfig())
	bad.CacheBytes = 10
	if err := bad.Validate(); err == nil {
		t.Error("cache smaller than associativity accepted")
	}
}

func TestRenderMatchesReferenceExactly(t *testing.T) {
	// The GPU path *is* the reference float pipeline; outputs must be
	// bit-identical to pt.Render.
	cfg := testPTConfig()
	g, err := New(DefaultConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	full := grad(128, 64)
	o := geom.Orientation{Yaw: 0.6, Pitch: -0.2}
	if !g.Render(full, o).Equal(pt.Render(cfg, full, o)) {
		t.Error("GPU output differs from reference PT")
	}
}

func TestStatsAndEnergy(t *testing.T) {
	cfg := DefaultConfig(testPTConfig())
	g, _ := New(cfg)
	full := grad(128, 64)
	g.Render(full, geom.Orientation{})
	s := g.stats
	if s.Frames != 1 || s.Pixels != 1600 {
		t.Errorf("stats = %+v", s)
	}
	if s.TexelFetches != 4*1600 {
		t.Errorf("bilinear fetches = %d, want %d", s.TexelFetches, 4*1600)
	}
	if s.CacheMisses <= 0 || s.CacheMisses >= s.TexelFetches {
		t.Errorf("cache misses %d implausible vs %d fetches", s.CacheMisses, s.TexelFetches)
	}
	if s.DRAMReadBytes != s.CacheMisses*int64(cfg.CacheLineB) {
		t.Error("DRAM bytes inconsistent with misses")
	}
	wantE := s.ActiveSeconds*cfg.ActivePowerW + cfg.StackEnergyJ
	if math.Abs(s.EnergyJoules-wantE) > 1e-12 {
		t.Errorf("energy = %v, want %v", s.EnergyJoules, wantE)
	}
}

func TestNearestFetchesOnePerPixel(t *testing.T) {
	ptCfg := testPTConfig()
	ptCfg.Filter = pt.Nearest
	g, _ := New(DefaultConfig(ptCfg))
	g.Render(grad(128, 64), geom.Orientation{})
	if s := g.stats; s.TexelFetches != 1600 {
		t.Errorf("nearest fetches = %d, want 1600", s.TexelFetches)
	}
}

func TestCacheLocalityAcrossFrames(t *testing.T) {
	// A second identical frame re-walks the same texels: with a warm cache
	// the miss count must not double.
	g, _ := New(DefaultConfig(testPTConfig()))
	full := grad(96, 48)
	g.Render(full, geom.Orientation{})
	firstMisses := g.stats.CacheMisses
	g.Render(full, geom.Orientation{})
	if total := g.stats.CacheMisses; total >= 2*firstMisses {
		t.Errorf("no reuse across frames: %d then %d", firstMisses, total-firstMisses)
	}
}

func TestFrameEnergyJ(t *testing.T) {
	cfg := DefaultConfig(testPTConfig())
	got := cfg.FrameEnergyJ()
	want := 1600.0/cfg.ThroughputPixPS*cfg.ActivePowerW + cfg.StackEnergyJ
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("FrameEnergyJ = %v, want %v", got, want)
	}
}

func TestTexCacheDirectBehavior(t *testing.T) {
	c := newTexCache(4*16, 16, 2) // 4 lines, 2 ways, 2 sets
	if c.access(0) {
		t.Error("cold access hit")
	}
	if !c.access(0) {
		t.Error("warm access missed")
	}
	// Fill set 0 (tiles ≡ 0 mod 2): 0, 2 resident; 4 evicts LRU (0).
	c.access(2)
	c.access(0) // refresh 0 → LRU is 2
	c.access(4) // evicts 2
	if !c.access(0) {
		t.Error("tile 0 should have survived")
	}
	if c.access(2) {
		t.Error("tile 2 should have been evicted")
	}
}

func TestGPUEnergyExceedsPTEClassPower(t *testing.T) {
	// The premise of HAR: for the same PT work the GPU burns roughly an
	// order of magnitude more power than the 194 mW PTE.
	cfg := DefaultConfig(testPTConfig())
	if cfg.ActivePowerW < 0.194*5 {
		t.Errorf("GPU active power %v W implausibly close to PTE's 0.194 W", cfg.ActivePowerW)
	}
}

// TestSeamFetchesChargeTheTexelsTheFilterReads pins the cache model to the
// filter it models: the tiles it touches are exactly the tiles of the texels
// pt.Config.Sample reads — floor (bilinear) or round (nearest), then the
// shared edge policy. Just right of the ERP seam (u ∈ (−0.5, 0)) the
// bilinear filter reads column W−1 and column 0; a model that truncates
// toward zero instead of flooring charges column 0 twice and never touches
// the last tile column.
func TestSeamFetchesChargeTheTexelsTheFilterReads(t *testing.T) {
	const fullW, fullH = 128, 64
	full := grad(fullW, fullH)
	sliver := projection.Viewport{Width: 2, Height: 2, FOVX: 0.01, FOVY: 0.01}
	// Denser than the panorama, so some pixel of every seam-crossing output
	// row lands in the half-texel sliver.
	wide := projection.Viewport{Width: 160, Height: 40, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	for _, tc := range []struct {
		name   string
		vp     projection.Viewport
		filter pt.Filter
		o      geom.Orientation
	}{
		{"bilinear/sliver", sliver, pt.Bilinear, geom.Orientation{Yaw: -math.Pi + 0.012}},
		{"bilinear/straddling", wide, pt.Bilinear, geom.Orientation{Yaw: math.Pi, Pitch: 0.2}},
		{"nearest/straddling", wide, pt.Nearest, geom.Orientation{Yaw: math.Pi, Pitch: 0.2}},
	} {
		cfg := pt.Config{Projection: projection.ERP, Filter: tc.filter, Viewport: tc.vp}
		gc := DefaultConfig(cfg)
		// Direct-mapped with one set per tile: nothing is ever evicted, so
		// after a render the resident tags are the touched tiles.
		tilesPerRow := fullW / gc.TileW
		gc.CacheWays = 1
		gc.CacheBytes = tilesPerRow * (fullH / gc.TileH) * gc.CacheLineB
		g, err := New(gc)
		if err != nil {
			t.Fatal(err)
		}
		g.Render(full, tc.o)

		want := map[int]bool{}
		fetches, seamPixels, lastColumn := int64(0), 0, false
		read := func(x, y int) {
			x, y = frame.Resolve(fullW, fullH, true, x, y)
			want[(y/gc.TileH)*tilesPerRow+x/gc.TileW] = true
			lastColumn = lastColumn || x/gc.TileW == tilesPerRow-1
			fetches++
		}
		m := cfg.NewMapper(tc.o, fullW, fullH)
		for j := 0; j < tc.vp.Height; j++ {
			for i := 0; i < tc.vp.Width; i++ {
				u, v := m.Map(i, j)
				if u > -0.5 && u < 0 {
					seamPixels++
				}
				if tc.filter == pt.Nearest {
					read(int(math.Round(u)), int(math.Round(v)))
					continue
				}
				x0, y0 := int(math.Floor(u)), int(math.Floor(v))
				read(x0, y0)
				read(x0+1, y0)
				read(x0, y0+1)
				read(x0+1, y0+1)
			}
		}
		if seamPixels == 0 || !lastColumn {
			t.Fatalf("%s: pose does not exercise the seam (%d pixels with u in (-0.5, 0), last tile column read: %v)",
				tc.name, seamPixels, lastColumn)
		}
		got := map[int]bool{}
		for _, set := range g.cache.tags {
			if set[0] >= 0 {
				got[set[0]] = true
			}
		}
		for tile := range want {
			if !got[tile] {
				t.Errorf("%s: filter reads tile %d (column %d of %d), model never touched it",
					tc.name, tile, tile%tilesPerRow, tilesPerRow)
			}
		}
		for tile := range got {
			if !want[tile] {
				t.Errorf("%s: model touched tile %d, which the filter never reads", tc.name, tile)
			}
		}
		if s := g.stats; s.TexelFetches != fetches || s.CacheMisses != int64(len(want)) {
			t.Errorf("%s: %d fetches / %d misses, want %d / %d", tc.name, s.TexelFetches, s.CacheMisses, fetches, len(want))
		}
	}
}
