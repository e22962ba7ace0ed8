package ptlut

import (
	"fmt"
	"math"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/pt"
)

// Renderer is the LUT-backed counterpart of pt.RenderParallel: it resolves
// each render to a mapping table (from the cache when resident, built and
// inserted otherwise) and applies it with the branch-free sampling loops.
// In exact mode (the zero Options) the output is byte-identical to
// pt.RenderParallel for every pose, input frame, and worker count; the
// quantized modes trade bounded pixel error for cross-pose table sharing
// and a faster integer blend.
//
// A Renderer is safe for concurrent use; renders for different poses or
// input sizes coexist because every table is keyed on the full mapping
// tuple. Output frames come from the shared render buffer pool — return
// them with pt.Recycle when done.
type Renderer struct {
	cfg   pt.Config
	cache *Cache
	opts  Options
}

// NewRenderer builds a renderer for one render configuration over a table
// cache. cache may be nil — every render then builds its table, which still
// exercises the identical sampling path (useful for conformance checking);
// any real hot path wants a shared Cache. Invalid configurations are
// reported up front.
func NewRenderer(cfg pt.Config, cache *Cache, opts Options) (*Renderer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.QuantStep < 0 || math.IsNaN(opts.QuantStep) || math.IsInf(opts.QuantStep, 0) {
		return nil, fmt.Errorf("ptlut: negative or non-finite quantization step %v", opts.QuantStep)
	}
	return &Renderer{cfg: cfg, cache: cache, opts: opts}, nil
}

// Table returns the mapping table a render of a fullW×fullH input at pose o
// would use, building (and caching) it if needed — the warm-up hook for
// callers that know the pose schedule ahead of time.
func (r *Renderer) Table(o geom.Orientation, fullW, fullH int) (*Table, error) {
	build := Quantize(o, r.opts.QuantStep)
	quantW := r.opts.QuantWeights && r.cfg.Filter == pt.Bilinear
	key := MakeKey(r.cfg, build, fullW, fullH, quantW)
	return r.cache.Get(key, func() (*Table, error) {
		return Build(r.cfg, build, fullW, fullH, quantW, 0)
	})
}

// RenderChecked produces the FOV frame for head orientation o from the full
// panoramic frame, through the mapping LUT, or reports why the input frame
// is invalid. workers == 0 uses pt.DefaultWorkers.
func (r *Renderer) RenderChecked(full *frame.Frame, o geom.Orientation, workers int) (*frame.Frame, error) {
	if err := pt.CheckInput(full); err != nil {
		return nil, err
	}
	tbl, err := r.Table(o, full.W, full.H)
	if err != nil {
		return nil, err
	}
	return tbl.Render(full, workers)
}

// Stats snapshots the underlying cache (zeros when cache is nil).
func (r *Renderer) Stats() CacheStats { return r.cache.Stats() }
