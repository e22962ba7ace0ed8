// Package gpusim models the baseline the paper's HAR primitive replaces: a
// mobile GPU executing projective transformation as generic texture mapping
// (§2, §6.1).
//
// The model captures the two sources of GPU inefficiency the paper calls
// out:
//
//   - Generic texture caching: the GPU's texture cache supports arbitrary
//     access patterns, so PT's deterministic stencil-like pattern still pays
//     tag lookups and suffers conflict misses a scratchpad would not. The
//     simulator runs a set-associative texture cache over tiled texels and
//     reports the resulting DRAM traffic.
//   - Software stack: every frame rendered through OpenGL invokes the
//     application library, runtime, and OS driver, charged as a fixed
//     per-frame host-energy overhead.
//
// Numerically, the GPU produces exactly the reference pt.Render output
// (full-precision float), which is what the PTE's fixed-point output is
// compared against in Fig. 11.
package gpusim

import (
	"fmt"
	"math"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/pt"
)

// Config describes the modeled mobile GPU. Defaults approximate the Tegra
// X2-class part in the paper's TX2 evaluation platform.
type Config struct {
	PT pt.Config // the texture-mapping task (projection, filter, viewport)

	ActivePowerW    float64 // GPU rail power while shading
	ThroughputPixPS float64 // sustained shaded pixels per second
	StackEnergyJ    float64 // per-frame software-stack (driver/runtime) energy

	CacheBytes   int // texture cache capacity
	CacheLineB   int // bytes per cache line (one texel tile)
	CacheWays    int // set associativity
	TileW, TileH int // texel tile geometry backing one line
}

// DefaultConfig returns a TX2-class GPU model for the given PT task.
func DefaultConfig(ptCfg pt.Config) Config {
	return Config{
		PT:              ptCfg,
		ActivePowerW:    1.80,
		ThroughputPixPS: 150e6,
		StackEnergyJ:    5e-3,
		CacheBytes:      48 << 10,
		CacheLineB:      48, // 4×4 RGB24 texels
		CacheWays:       4,
		TileW:           4,
		TileH:           4,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.PT.Validate(); err != nil {
		return err
	}
	if c.ActivePowerW <= 0 || c.ThroughputPixPS <= 0 {
		return fmt.Errorf("gpusim: power %v W / throughput %v px/s must be positive", c.ActivePowerW, c.ThroughputPixPS)
	}
	if c.CacheBytes <= 0 || c.CacheLineB <= 0 || c.CacheWays <= 0 || c.TileW <= 0 || c.TileH <= 0 {
		return fmt.Errorf("gpusim: cache geometry must be positive")
	}
	if c.CacheBytes/c.CacheLineB < c.CacheWays {
		return fmt.Errorf("gpusim: cache too small for %d ways", c.CacheWays)
	}
	return nil
}

// Stats accumulates GPU work.
type Stats struct {
	Frames        int
	Pixels        int64
	TexelFetches  int64
	CacheMisses   int64
	DRAMReadBytes int64
	ActiveSeconds float64
	EnergyJoules  float64
}

// GPU is a texture-mapping GPU instance. Not safe for concurrent use.
type GPU struct {
	cfg   Config
	cache *texCache
	stats Stats
}

// New builds a GPU model, or reports why the configuration is invalid.
func New(cfg Config) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &GPU{cfg: cfg, cache: newTexCache(cfg.CacheBytes, cfg.CacheLineB, cfg.CacheWays)}, nil
}

// Render executes one PT frame as texture mapping and returns the FOV frame.
//
// The pixels are the float reference's by definition, so they come from
// pt.RenderParallelChecked (the GPU's shader cores). The texture-cache model
// is inherently order-dependent (LRU state), so fetch accounting replays the
// raster scan serially — stats stay deterministic for every worker count.
// It panics on a nil or empty input frame.
func (g *GPU) Render(full *frame.Frame, o geom.Orientation) *frame.Frame {
	out, err := pt.RenderParallelChecked(g.cfg.PT, full, o, 0)
	if err != nil {
		panic(err)
	}
	g.replayFetches(full.W, full.H, o)
	px := int64(out.W) * int64(out.H)
	secs := float64(px) / g.cfg.ThroughputPixPS
	g.stats.Frames++
	g.stats.Pixels += px
	g.stats.ActiveSeconds += secs
	g.stats.EnergyJoules += secs*g.cfg.ActivePowerW + g.cfg.StackEnergyJ
	return out
}

// replayFetches walks the output raster in scan order and charges every
// texel the filter reads to the texture cache. The texels are the ones
// pt.Config.Sample reads: round-to-nearest for the nearest filter, the floor
// 2×2 neighborhood for bilinear, each resolved through the shared edge
// policy (frame.Resolve) — a seam-crossing ERP fetch hits the tile on the
// opposite edge.
func (g *GPU) replayFetches(fullW, fullH int, o geom.Orientation) {
	cfg := g.cfg.PT
	m := cfg.NewMapper(o, fullW, fullH)
	wrap := cfg.Projection.WrapsX()
	tilesPerRow := (fullW + g.cfg.TileW - 1) / g.cfg.TileW
	fetch := func(x, y int) {
		x, y = frame.Resolve(fullW, fullH, wrap, x, y)
		tile := (y/g.cfg.TileH)*tilesPerRow + x/g.cfg.TileW
		g.stats.TexelFetches++
		if !g.cache.access(tile) {
			g.stats.CacheMisses++
			g.stats.DRAMReadBytes += int64(g.cfg.CacheLineB)
		}
	}
	for j := 0; j < cfg.Viewport.Height; j++ {
		for i := 0; i < cfg.Viewport.Width; i++ {
			u, v := m.Map(i, j)
			if cfg.Filter == pt.Bilinear {
				x0, y0 := int(math.Floor(u)), int(math.Floor(v))
				fetch(x0, y0)
				fetch(x0+1, y0)
				fetch(x0, y0+1)
				fetch(x0+1, y0+1)
			} else {
				fetch(int(math.Round(u)), int(math.Round(v)))
			}
		}
	}
}

// FrameEnergyJ returns the modeled energy of one PT frame without running
// the pixel pipeline — used by the device energy model when only the energy
// integral is needed.
func (c Config) FrameEnergyJ() float64 {
	px := float64(c.PT.Viewport.Pixels())
	return px/c.ThroughputPixPS*c.ActivePowerW + c.StackEnergyJ
}

// texCache is a set-associative LRU cache over texel tiles.
type texCache struct {
	ways  int
	sets  int
	tags  [][]int
	stamp [][]int64
	clock int64
}

func newTexCache(bytes, lineB, ways int) *texCache {
	lines := bytes / lineB
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	c := &texCache{ways: ways, sets: sets}
	c.tags = make([][]int, sets)
	c.stamp = make([][]int64, sets)
	for i := range c.tags {
		c.tags[i] = make([]int, ways)
		c.stamp[i] = make([]int64, ways)
		for w := range c.tags[i] {
			c.tags[i][w] = -1
		}
	}
	return c
}

// access looks up a tile, returning true on hit. Misses fill via LRU.
func (c *texCache) access(tile int) bool {
	c.clock++
	set := tile % c.sets
	for w := 0; w < c.ways; w++ {
		if c.tags[set][w] == tile {
			c.stamp[set][w] = c.clock
			return true
		}
	}
	victim, oldest := 0, c.stamp[set][0]
	for w := 1; w < c.ways; w++ {
		if c.stamp[set][w] < oldest {
			victim, oldest = w, c.stamp[set][w]
		}
	}
	c.tags[set][victim] = tile
	c.stamp[set][victim] = c.clock
	return false
}
