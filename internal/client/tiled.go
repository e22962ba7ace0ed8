package client

import (
	"fmt"
	"math"
	"sync"

	"evr/internal/delivery"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/headtrace"
	"evr/internal/hmp"
	"evr/internal/netsim"
	"evr/internal/projection"
	"evr/internal/server"
	"evr/internal/tiling"
)

// TiledConfig enables the viewport-adaptive tiled delivery mode: per
// segment, the delivery policy engine chooses between the pre-rendered FOV
// stream, a per-tile fetch set assembled client-side over a low-res
// backfill, and the full original panorama. The zero value leaves the
// player in the classic FOV/orig mode.
type TiledConfig struct {
	// Enabled turns the tiled delivery mode on. It only takes effect for
	// videos whose manifest advertises tile streams (tiled ingest).
	Enabled bool
	// Force pins every segment to one delivery mode instead of letting the
	// policy decide (delivery.ModeAuto = decide per segment). Used by the
	// load generator to sweep the policy frontier.
	Force delivery.Mode
	// Link models the access link the policy budgets against and the
	// playback timeline downloads over. Zero value = the paper's 300 Mbps
	// Wi-Fi evaluation link.
	Link netsim.Link
}

// fetchMarginDeg widens the tile-fetch viewport beyond the HMD FOV on each
// side, buying prediction-error headroom with extra tiles on the wire
// (mispredictions beyond it degrade to backfill quality, never stall). The
// fetch viewport is capped at the FOV-stream width.
const fetchMarginDeg = 10

// maxPanoramaPixels bounds the panorama a manifest may declare for tiled
// playback: 8K ERP, four times the paper's 3840×1920. The session allocates
// its assembly canvas at the declared size before any payload arrives, so a
// hostile manifest must not choose it freely.
const maxPanoramaPixels = 7680 * 3840

// tiledSession is the per-Play state of the tiled delivery mode: the grid
// geometry from the manifest, the policy engine, the rung count, and the
// modeled playback timeline whose buffer level feeds the policy and the
// rung pick. The head pose at segment display time comes from the
// constant-velocity linear predictor; the visible-tile set is computed at
// that pose.
type tiledSession struct {
	grid     tiling.Grid
	method   projection.Method
	policy   delivery.PolicyConfig
	force    delivery.Mode
	rungs    int
	timeline *netsim.Timeline
	// fetchVP is the viewport tile visibility is computed against at the
	// predicted pose: the HMD FOV plus the fetch margin (capped at the
	// FOV-stream width). needVP is the bare HMD-FOV viewport used to
	// judge, at the actual pose, which tiles were truly needed.
	fetchVP, needVP projection.Viewport
	// lastMode feeds the previous segment's policy decision back into
	// Decide so its hysteresis band can damp mode flapping.
	lastMode delivery.Mode

	// Per-frame assembly: a reader for the backfill and one per tile index
	// (a tile whose stream is nil was not fetched for this segment), the
	// assembler, and the one canvas every assembled frame is built in.
	low        streamReader
	tiles      []streamReader
	tileFrames []*frame.Frame // this frame's tile frames, indexed by tile
	asm        *delivery.Assembler
	canvas     *frame.Frame
}

// newTiledSession builds the tiled-mode state for one playback, or nil when
// the mode is off or the manifest has no tile streams.
func newTiledSession(cfg TiledConfig, man *server.Manifest, hmdFOVXDeg, hmdFOVYDeg float64) (*tiledSession, error) {
	if !cfg.Enabled || man.Tiling == nil {
		return nil, nil
	}
	if man.FullW < 1 || man.FullH < 1 || man.FullW > maxPanoramaPixels/man.FullH {
		return nil, fmt.Errorf("client: manifest panorama %dx%d outside 1..%d pixels", man.FullW, man.FullH, maxPanoramaPixels)
	}
	grid := tiling.Grid{Cols: man.Tiling.Cols, Rows: man.Tiling.Rows}
	if err := grid.Validate(man.FullW, man.FullH); err != nil {
		return nil, fmt.Errorf("client: manifest tiling: %w", err)
	}
	if man.Tiling.Rungs < 1 {
		return nil, fmt.Errorf("client: manifest tiling has %d rungs, need at least one", man.Tiling.Rungs)
	}
	if man.FPS <= 0 || man.SegmentFrames <= 0 {
		return nil, fmt.Errorf("client: manifest has no timing (fps %d, segment %d frames)", man.FPS, man.SegmentFrames)
	}
	for i := range man.Segments {
		// The rung picker indexes the size table by tile: a short table
		// would send it out of range.
		if t := man.Segments[i].Tiles; t != nil && len(t.TileBytes) != grid.Tiles() {
			return nil, fmt.Errorf("client: manifest segment %d prices %d tiles, the %dx%d grid has %d",
				man.Segments[i].Index, len(t.TileBytes), grid.Cols, grid.Rows, grid.Tiles())
		}
	}
	segDur := float64(man.SegmentFrames) / float64(man.FPS)
	link := cfg.Link
	if link.BandwidthBps == 0 {
		link = netsim.WiFi300()
	}
	policy := delivery.DefaultPolicy(segDur)
	policy.Link = link
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	asm, err := delivery.NewAssembler(grid, man.FullW, man.FullH)
	if err != nil {
		return nil, err
	}
	fetchX := math.Min(hmdFOVXDeg+2*fetchMarginDeg, man.FOVXDeg)
	fetchY := math.Min(hmdFOVYDeg+2*fetchMarginDeg, man.FOVYDeg)
	return &tiledSession{
		grid:     grid,
		method:   projection.Method(man.Projection),
		policy:   policy,
		force:    cfg.Force,
		rungs:    man.Tiling.Rungs,
		timeline: &netsim.Timeline{Link: link, SegmentDuration: segDur},
		fetchVP: projection.Viewport{
			Width: man.FOVW, Height: man.FOVH,
			FOVX: geom.Radians(fetchX), FOVY: geom.Radians(fetchY),
		},
		needVP: projection.Viewport{
			Width: man.FOVW, Height: man.FOVH,
			FOVX: geom.Radians(hmdFOVXDeg), FOVY: geom.Radians(hmdFOVYDeg),
		},
		tiles:      make([]streamReader, grid.Tiles()),
		tileFrames: make([]*frame.Frame, grid.Tiles()),
		asm:        asm,
		canvas:     frame.New(man.FullW, man.FullH),
	}, nil
}

// tiledPlan is one segment's delivery decision: the resolved mode, the
// per-tile rung choices (tiled mode only), and the modeled wire bytes of
// the chosen mode that advance the playback timeline.
type tiledPlan struct {
	mode  delivery.Mode
	rungs []int
	bytes int64
}

// plan runs the three-way delivery decision for one segment: predict the
// pose at segment display time, price the tile set the prediction makes
// visible, and let the policy engine (or a forced mode) choose. ci is the
// chosen FOV video's index in seg.Clusters, -1 for none.
func (ts *tiledSession) plan(seg *server.SegmentInfo, tr headtrace.Trace, frameIdx, ci int, tolerance float64) tiledPlan {
	predicted := hmp.LinearPredictor{}.Predict(tr, frameIdx, seg.Frames/2)

	var fovBytes int64
	confidence := 0.0
	if ci >= 0 {
		cl := &seg.Clusters[ci]
		confidence = delivery.FOVConfidence(predicted, geom.Orientation{Yaw: cl.Pose.Yaw, Pitch: cl.Pose.Pitch}, tolerance)
		fovBytes = int64(cl.Bytes)
	}

	visible := ts.grid.Visible(ts.fetchVP, predicted, ts.method)
	dist := make([]float64, ts.grid.Tiles())
	fwd := predicted.Forward()
	for t := range dist {
		dist[t] = fwd.Angle(ts.grid.Center(t, ts.method))
	}
	rungs := delivery.PickTileRungs(visible, seg.Tiles.TileBytes, delivery.BufferRung(ts.timeline.Buffer(), ts.timeline.SegmentDuration, ts.rungs), ts.policy.ByteBudget(), dist)
	// Acuity falloff: tiles beyond the HMD half-FOV from the predicted
	// gaze are peripheral — ship them coarser.
	delivery.DemotePeripheral(rungs, seg.Tiles.TileBytes, dist, ts.needVP.FOVX/2)
	tiledBytes := int64(seg.Tiles.LowBytes)
	for t, r := range rungs {
		if r >= 0 {
			tiledBytes += int64(seg.Tiles.TileBytes[t][r])
		}
	}

	d := ts.policy.Decide(delivery.SegmentInputs{
		FOVBytes:      fovBytes,
		FOVConfidence: confidence,
		TiledBytes:    tiledBytes,
		OrigBytes:     int64(seg.OrigBytes),
		BufferSec:     ts.timeline.Buffer(),
		LastMode:      ts.lastMode,
	})
	ts.lastMode = d.Mode
	mode := d.Mode
	if ts.force != delivery.ModeAuto {
		mode = ts.force
	}
	// A forced FOV mode without a usable cluster stream has nothing to
	// display; the original stream is the only honest fallback.
	if mode == delivery.ModeFOV && fovBytes == 0 {
		mode = delivery.ModeOrig
	}
	var bytes int64
	switch mode {
	case delivery.ModeFOV:
		bytes = fovBytes
	case delivery.ModeTiled:
		bytes = tiledBytes
	default:
		bytes = int64(seg.OrigBytes)
	}
	return tiledPlan{mode: mode, rungs: rungs, bytes: bytes}
}

// fetchTiled downloads one segment's low-res backfill stream and its
// planned tile set concurrently, and points the session's readers at them. A
// failed tile fetch never aborts the segment — that tile's rectangle simply
// stays at backfill quality (counted in stats). A missing backfill stream
// fails the whole segment: there is nothing to paint tiles over.
func (p *Player) fetchTiled(ts *tiledSession, video string, seg *server.SegmentInfo, plan tiledPlan, stats *PlaybackStats) error {
	ftch := p.Fetcher()
	for t := range ts.tiles {
		ts.tiles[t].load(nil)
	}
	low, _, err := ftch.Segment(p.BaseURL, server.Ref{Video: video, Kind: server.TileLow, Seg: seg.Index})
	ts.low.load(low)
	if err != nil {
		return err
	}
	var (
		mu              sync.Mutex
		wg              sync.WaitGroup
		fetched, failed int
	)
	for t, r := range plan.rungs {
		if r < 0 {
			continue
		}
		wg.Add(1)
		go func(t, r int) {
			defer wg.Done()
			bits, _, err := ftch.Segment(p.BaseURL, server.Ref{Video: video, Kind: server.Tile, Seg: seg.Index, A: t, B: r})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failed++
				return
			}
			ts.tiles[t].load(bits)
			fetched++
		}(t, r)
	}
	wg.Wait()
	stats.TiledTiles += fetched
	stats.TiledTileErrors += failed
	return nil
}

// frame decodes frame f of the backfill and of every fetched tile and
// assembles them into the session canvas, which stays valid until the next
// call. A tile frame that does not decode leaves its rectangle at backfill
// quality for the rest of the segment, as a failed tile fetch does; a
// backfill frame that does not decode, or an assembly that cannot place a
// tile, is the segment's error. A frame past the backfill's end is nil.
func (ts *tiledSession) frame(f int, stats *PlaybackStats) (*frame.Frame, error) {
	low, err := ts.low.frame(f)
	if low == nil {
		return nil, err
	}
	for t := range ts.tiles {
		tf, err := ts.tiles[t].frame(f)
		if err != nil {
			stats.TiledTileErrors++
			ts.tiles[t].load(nil)
		}
		ts.tileFrames[t] = tf
	}
	if err := ts.asm.Frame(ts.canvas, low, ts.tileFrames); err != nil {
		return nil, err
	}
	return ts.canvas, nil
}

// countMispredicted adds, for one displayed frame at the actual pose o, the
// tiles the HMD viewport needed but the segment's fetched tile set did not
// cover — the rectangles the viewer saw at backfill quality.
func (ts *tiledSession) countMispredicted(o geom.Orientation, stats *PlaybackStats) {
	need := ts.grid.Visible(ts.needVP, o, ts.method)
	for t, n := range need {
		if n && ts.tiles[t].bits == nil {
			stats.MispredictedTiles++
		}
	}
}
