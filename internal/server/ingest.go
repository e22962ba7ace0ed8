// Package server implements the EVR cloud component (§5.3): the offline
// ingest pipeline — object detection on key frames, tracking across
// tracking frames, k-means clustering, FOV-video pre-rendering and encoding
// into the SAS store — and the streaming service that serves FOV videos and
// original segments to clients over HTTP.
//
// Routing: Service.Handler is Front over a ServeMux. A payload request in its
// canonical spelling (canonicalRef) is parsed once and handed straight to its
// kind's handler, skipping the mux; every other request — catalog, manifest,
// metrics, and each payload address the mux answers 400, 404, 405 or with a
// redirect — goes through the mux unchanged. The payload path writes its
// headers under their canonical keys from precomputed values.
//
// This is the pixel-exact counterpart of the behavioral planner in package
// sas: every FOV frame served here was produced by running the actual
// projective transformation server-side (the paper's "pre-rendering"), and
// every byte count comes from the real codec.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"evr/internal/codec"
	"evr/internal/delivery"
	"evr/internal/display"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/ptlut"
	"evr/internal/sas"
	"evr/internal/scene"
	"evr/internal/store"
	"evr/internal/tiling"
	"evr/internal/vision"
)

// IngestConfig sets the pixel-pipeline parameters. Resolutions are scaled
// down from the nominal 4K so ingest stays tractable; the geometry (FOV,
// margins, segment length) matches the behavioral model. Ingest builds
// segments side by side over pt.DefaultWorkers (GOMAXPROCS) workers; the
// manifest and every stored payload are byte-identical for any GOMAXPROCS.
type IngestConfig struct {
	SAS   sas.Config
	Codec codec.Config

	Projection projection.Method
	FullW      int // panoramic frame width (ERP: 2:1 aspect)
	FullH      int
	FOVW       int // FOV video frame size (multiples of the codec block)
	FOVH       int
	FOVXDeg    float64 // pre-rendered horizontal FOV including margin
	FOVYDeg    float64

	MaxSegments int // 0 = entire video

	// EmbeddedSemantics enables the §9 capture/playback co-design the
	// paper sketches as future work: the capture system embeds object
	// annotations in the content, so ingest skips detection and tracking
	// entirely and clusters the embedded ground truth. This slashes the
	// cloud analysis cost; IngestReport quantifies it.
	EmbeddedSemantics bool

	// LiveMode models the live-streaming use-case (§8.3): real-time
	// constraints leave no room for ingest analysis, so no FOV videos are
	// produced — clients play the original segments and pay PT on device
	// (which is why only the H primitive applies to live content).
	LiveMode bool

	// Live switches to the live ingest pipeline (NewLiveStream): a
	// producer renders and encodes segments into a bounded queue and a
	// publisher commits them on a clock schedule while the service serves.
	// Implies LiveMode. Batch Ingest rejects a config with Live set, and
	// live ingest is orig-only (no Tiled).
	Live *LiveOptions

	// Tiled additionally ingests each segment as a tile grid: every tile
	// encoded at tileRungs quality rungs plus one low-resolution backfill
	// stream, served over the /tile and /tilelow endpoints for the
	// viewport-adaptive delivery mode (internal/delivery). The layout is
	// derived from FullW×FullH (see tiling) and published in the manifest.
	Tiled bool
}

// tileRungs is the per-tile quality-rung count; rung r encodes at quality
// base<<r (coarser as r grows).
const tileRungs = 3

// DefaultIngestConfig returns a test-scale pipeline: 192×96 panoramas with
// 48×48 FOV frames covering the HMD's 110° FOV plus the SAS margin.
func DefaultIngestConfig() IngestConfig {
	s := sas.DefaultConfig()
	return IngestConfig{
		SAS:         s,
		Codec:       codec.Config{GOP: s.SegmentFrames, Quality: 6, SearchRange: 2},
		Projection:  projection.ERP,
		FullW:       192,
		FullH:       96,
		FOVW:        48,
		FOVH:        48,
		FOVXDeg:     110 + s.MarginDeg,
		FOVYDeg:     110 + s.MarginDeg,
		MaxSegments: 0,
	}
}

// tiling derives the tile layout from the frame geometry: the first grid of
// 4×2, 2×2, 2×1 whose tiles are codec-codable at FullW×FullH, and the
// largest backfill divisor of 4, 2 that keeps the low stream codable.
// Validate's block-size check makes the 1×1 grid and divisor 1 fallbacks
// always codable, so the result needs no validation of its own.
func (c IngestConfig) tiling() *TilingInfo {
	t := &TilingInfo{Cols: 1, Rows: 1, Rungs: tileRungs, LowDiv: 1}
	for _, g := range []tiling.Grid{{Cols: 4, Rows: 2}, {Cols: 2, Rows: 2}, {Cols: 2, Rows: 1}} {
		if g.Validate(c.FullW, c.FullH) == nil {
			t.Cols, t.Rows = g.Cols, g.Rows
			break
		}
	}
	for _, d := range []int{4, 2} {
		if (c.FullW/d)%8 == 0 && (c.FullH/d)%8 == 0 {
			t.LowDiv = d
			break
		}
	}
	return t
}

// Validate reports whether the configuration is usable.
func (c IngestConfig) Validate() error {
	if err := c.SAS.Validate(); err != nil {
		return err
	}
	if err := c.Codec.Validate(); err != nil {
		return err
	}
	if c.FullW <= 0 || c.FullH <= 0 || c.FOVW <= 0 || c.FOVH <= 0 {
		return fmt.Errorf("server: frame dimensions must be positive")
	}
	if c.FullW%8 != 0 || c.FullH%8 != 0 || c.FOVW%8 != 0 || c.FOVH%8 != 0 {
		return fmt.Errorf("server: frame dimensions must be multiples of the codec block size")
	}
	if c.FOVXDeg <= 0 || c.FOVXDeg >= 180 || c.FOVYDeg <= 0 || c.FOVYDeg >= 180 {
		return fmt.Errorf("server: FOV %v°×%v° out of (0, 180)", c.FOVXDeg, c.FOVYDeg)
	}
	if c.MaxSegments < 0 {
		return fmt.Errorf("server: MaxSegments must be ≥ 0")
	}
	if c.Live != nil {
		if err := c.Live.Validate(); err != nil {
			return err
		}
		if c.Tiled {
			return fmt.Errorf("server: live ingest is orig-only (no tiled streams)")
		}
	}
	return nil
}

// viewport returns the pre-render viewport.
func (c IngestConfig) viewport() projection.Viewport {
	return projection.Viewport{
		Width: c.FOVW, Height: c.FOVH,
		FOVX: geom.Radians(c.FOVXDeg), FOVY: geom.Radians(c.FOVYDeg),
	}
}

// FrameMeta is the per-FOV-frame metadata streamed alongside frame data
// (§5.2): the head orientation the frame was pre-rendered for. On the wire
// a FOV video's metadata is the FOVMeta payload MarshalFrameMeta writes.
type FrameMeta struct {
	Yaw   float64 `json:"yaw"`
	Pitch float64 `json:"pitch"`
}

// frameMetaSize is one frame's FOVMeta record: yaw, then pitch, each as
// little-endian float64 bits.
const frameMetaSize = 16

// MarshalFrameMeta encodes a FOV video's per-frame orientations as its
// FOVMeta payload: frameMetaSize bytes per frame, in frame order. The
// encoding is lossless, so the client's FOV check sees the exact angles the
// server pre-rendered.
func MarshalFrameMeta(meta []FrameMeta) []byte {
	out := make([]byte, 0, frameMetaSize*len(meta))
	for _, m := range meta {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m.Yaw))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m.Pitch))
	}
	return out
}

// UnmarshalFrameMeta parses the FOVMeta payload of a FOV video of frames
// frames. The payload must be exactly frames records of finite angles: a
// short payload would play its missing frames as misses and a NaN would
// fail every FOV check, so both are payload errors. The JSON array older
// ingests stored always fails the length check, since one JSON pose is
// longer than frameMetaSize; only then does a leading '[' mark it as stale
// (a binary payload may start with that byte).
func UnmarshalFrameMeta(b []byte, frames int) ([]FrameMeta, error) {
	if len(b)%frameMetaSize != 0 || len(b)/frameMetaSize != frames {
		if len(b) > 0 && b[0] == '[' {
			return nil, errors.New("server: FOV metadata is in the retired JSON form; re-ingest the video")
		}
		return nil, fmt.Errorf("server: FOV metadata is %d bytes, want %d (%d frames)", len(b), frameMetaSize*frames, frames)
	}
	meta := make([]FrameMeta, frames)
	for f := range meta {
		r := b[f*frameMetaSize:]
		m := FrameMeta{
			Yaw:   math.Float64frombits(binary.LittleEndian.Uint64(r[0:8])),
			Pitch: math.Float64frombits(binary.LittleEndian.Uint64(r[8:16])),
		}
		if !isFinite(m.Yaw) || !isFinite(m.Pitch) {
			return nil, fmt.Errorf("server: FOV metadata frame %d has a non-finite angle (yaw %v, pitch %v)", f, m.Yaw, m.Pitch)
		}
		meta[f] = m
	}
	return meta, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ClusterInfo describes one FOV video of a segment. The manifest carries
// only its first-frame orientation, Pose, which is all cluster choice reads;
// the per-frame orientations travel in the FOVMeta payload, and Meta keeps
// them on the ingesting process's manifest only.
type ClusterInfo struct {
	ID    int         `json:"id"`
	Bytes int         `json:"bytes"`
	Pose  FrameMeta   `json:"pose"`
	Meta  []FrameMeta `json:"-"`
}

// TilingInfo describes the video's tile ingest: the grid, the rung count,
// and the backfill downscale. Present in the manifest only for tiled
// ingests.
type TilingInfo struct {
	Cols   int `json:"cols"`
	Rows   int `json:"rows"`
	Rungs  int `json:"rungs"`
	LowDiv int `json:"lowDiv"`
}

// TileSegInfo carries the per-segment tile payload sizes the client's
// rung picker budgets against: TileBytes[tile][rung] plus the backfill
// stream size.
type TileSegInfo struct {
	LowBytes  int     `json:"lowBytes"`
	TileBytes [][]int `json:"tileBytes"`
}

// SegmentInfo describes one ingested temporal segment.
type SegmentInfo struct {
	Index     int           `json:"index"`
	Frames    int           `json:"frames"`
	OrigBytes int           `json:"origBytes"`
	Clusters  []ClusterInfo `json:"clusters"`
	Tiles     *TileSegInfo  `json:"tiles,omitempty"`
}

// Manifest is the per-video ingest result the client fetches first.
type Manifest struct {
	Video         string        `json:"video"`
	FPS           int           `json:"fps"`
	FullW         int           `json:"fullW"`
	FullH         int           `json:"fullH"`
	FOVW          int           `json:"fovW"`
	FOVH          int           `json:"fovH"`
	FOVXDeg       float64       `json:"fovXDeg"`
	FOVYDeg       float64       `json:"fovYDeg"`
	Projection    int           `json:"projection"`
	SegmentFrames int           `json:"segmentFrames"`
	Tiling        *TilingInfo   `json:"tiling,omitempty"`
	Segments      []SegmentInfo `json:"segments"`
	Report        IngestReport  `json:"report"`
	// Live marks a manifest served by an in-progress live stream: every
	// segment slot exists up front (so players can plan the session), but
	// only indices below LiveEdge have been published. Requests at or past
	// the edge get 425 + Retry-After.
	Live     bool `json:"live,omitempty"`
	LiveEdge int  `json:"liveEdge,omitempty"`
}

// IngestReport quantifies the cloud analysis cost — the axis the §9
// capture co-design improves.
type IngestReport struct {
	DetectorInvocations int  `json:"detectorInvocations"` // per-frame detector runs
	PreRenderedFrames   int  `json:"preRenderedFrames"`   // server-side PT executions
	EmbeddedSemantics   bool `json:"embeddedSemantics"`
}

// segmentSpan returns the total frame count of a spec and the number of
// temporal segments an ingest of it produces under cfg.
func segmentSpan(v scene.VideoSpec, cfg IngestConfig) (total, nSegs int) {
	total = v.Frames()
	nSegs = (total + cfg.SAS.SegmentFrames - 1) / cfg.SAS.SegmentFrames
	if cfg.MaxSegments > 0 && nSegs > cfg.MaxSegments {
		nSegs = cfg.MaxSegments
	}
	return total, nSegs
}

// baseManifest builds the manifest header shared by batch and live ingest.
func baseManifest(v scene.VideoSpec, cfg IngestConfig) *Manifest {
	man := &Manifest{
		Video: v.Name, FPS: v.FPS,
		FullW: cfg.FullW, FullH: cfg.FullH,
		FOVW: cfg.FOVW, FOVH: cfg.FOVH,
		FOVXDeg: cfg.FOVXDeg, FOVYDeg: cfg.FOVYDeg,
		Projection:    int(cfg.Projection),
		SegmentFrames: cfg.SAS.SegmentFrames,
	}
	if cfg.Tiled {
		man.Tiling = cfg.tiling()
	}
	return man
}

// renderSegmentFrames renders one segment's original frames from the
// video's raster, fanning frames out over workers goroutines (a Raster is
// read-only, so its frames render concurrently). Shared by batch ingest
// and the live producer.
func renderSegmentFrames(r *scene.Raster, fps, start, frames, workers int) []*frame.Frame {
	full := make([]*frame.Frame, frames)
	parallelFor(frames, workers, func(f int) error {
		full[f] = r.Frame(float64(start+f) / float64(fps))
		return nil
	})
	return full
}

// encodeOrigPayload encodes one segment's original stream into its wire
// payload. Shared by batch ingest and the live producer, so live bytes are
// byte-identical to a VOD ingest of the same spec.
func encodeOrigPayload(v scene.VideoSpec, cfg IngestConfig, si int, full []*frame.Frame) ([]byte, error) {
	origBits, err := codec.EncodeSequence(cfg.Codec, full)
	if err != nil {
		return nil, fmt.Errorf("server: encoding original segment %d of %s: %w", si, v.Name, err)
	}
	return codec.AppendSegment(nil, origBits)
}

// segmentSize returns the first frame and the frame count of segment si
// of a total-frame video.
func segmentSize(cfg IngestConfig, total, si int) (start, frames int) {
	start = si * cfg.SAS.SegmentFrames
	frames = cfg.SAS.SegmentFrames
	if start+frames > total {
		frames = total - start
	}
	return start, frames
}

// Ingest runs the cloud pipeline for one video and fills the SAS store.
//
// Segments are built side by side, at most pt.DefaultWorkers (GOMAXPROCS)
// at a time, each holding its own frames only while it builds; the
// workers a build fans its frames, tiles and clusters out over are the
// pool's share per segment in flight. The builds' payloads are then
// committed — store puts, manifest appends, report counters — in segment
// order, so the manifest and the store are byte-identical for any
// GOMAXPROCS. A failed build commits nothing: the store is left as it was
// and the error is that of the lowest failing segment.
func Ingest(v scene.VideoSpec, cfg IngestConfig, st *store.Store) (*Manifest, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Live != nil {
		return nil, fmt.Errorf("server: config has Live set; use NewLiveStream for live ingest")
	}
	man := baseManifest(v, cfg)
	total, nSegs := segmentSpan(v, cfg)
	b := segmentBuilder{
		v: v, cfg: cfg, tiling: man.Tiling,
		raster: v.Raster(cfg.Projection, cfg.FullW, cfg.FullH),
		ptCfg:  pt.Config{Projection: cfg.Projection, Filter: pt.Bilinear, Viewport: cfg.viewport()},
	}
	pool := pt.DefaultWorkers()
	inFlight := min(pool, nSegs)
	b.workers = 1
	if inFlight > 0 {
		b.workers = (pool + inFlight - 1) / inFlight
	}
	builds := make([]segmentBuild, nSegs)
	errs := make([]error, nSegs)
	parallelFor(nSegs, inFlight, func(si int) error {
		start, frames := segmentSize(cfg, total, si)
		builds[si], errs[si] = b.build(si, start, frames)
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range builds {
		if err := builds[i].commit(v.Name, st, man); err != nil {
			return nil, err
		}
		builds[i] = segmentBuild{} // the store holds copies
	}
	return man, nil
}

// segmentBuilder holds what every segment build of one ingest shares: the
// video's raster, the configuration and the workers per build. It is
// read-only, so segments build concurrently.
type segmentBuilder struct {
	v       scene.VideoSpec
	cfg     IngestConfig
	tiling  *TilingInfo // nil unless tiled
	raster  *scene.Raster
	ptCfg   pt.Config
	workers int
}

// segmentBuild is everything one segment contributes to the store, the
// manifest and the report, built without touching any of them.
type segmentBuild struct {
	info     SegmentInfo
	orig     []byte
	tiles    [][][]byte // [tile][rung], tiled ingests only
	low      []byte     // the tile backfill stream, tiled ingests only
	clusters []renderedCluster
	report   IngestReport
}

// build renders segment si, encodes its original stream, its tiles and
// backfill, analyses it and pre-renders its FOV videos. The frames are
// dropped when it returns; only payloads are kept.
func (b *segmentBuilder) build(si, start, frames int) (segmentBuild, error) {
	v, cfg := b.v, b.cfg
	full := renderSegmentFrames(b.raster, v.FPS, start, frames, b.workers)
	orig, err := encodeOrigPayload(v, cfg, si, full)
	if err != nil {
		return segmentBuild{}, err
	}
	sb := segmentBuild{info: SegmentInfo{Index: si, Frames: frames, OrigBytes: len(orig)}, orig: orig}
	// Tiled delivery: cut the segment into the tile grid, encode every
	// tile at each quality rung, and the low-res backfill stream.
	if b.tiling != nil {
		if err := b.buildTiles(&sb, full); err != nil {
			return segmentBuild{}, err
		}
	}

	// Segment analysis: per-cluster trajectory orientations, either
	// from the detection+tracking pipeline (§5.3, Fig. 7) or from
	// capture-embedded semantics (§9 co-design). Live streams skip
	// analysis entirely.
	var tracks [][]geom.Orientation
	if cfg.LiveMode {
		// no FOV videos for live content
	} else if cfg.EmbeddedSemantics {
		tracks = embeddedClusterTracks(v, start, frames)
		sb.report.EmbeddedSemantics = true
	} else {
		tracks = detectedClusterTracks(v, cfg, full, &sb.report)
	}
	// Pre-render and encode every cluster's FOV video concurrently,
	// splitting the build's workers: clusters fan out across them, and
	// each cluster's per-frame PT uses the workers left over (all of them
	// when the segment has a single cluster).
	sb.clusters = make([]renderedCluster, len(tracks))
	innerWorkers := 1
	if len(tracks) > 0 {
		innerWorkers = (b.workers + len(tracks) - 1) / len(tracks)
	}
	err = parallelFor(len(tracks), b.workers, func(ci int) error {
		rc, err := preRenderCluster(v, cfg, b.ptCfg, full, si, ci, tracks[ci], innerWorkers)
		if err != nil {
			return err
		}
		sb.clusters[ci] = rc
		return nil
	})
	if err != nil {
		return segmentBuild{}, err
	}
	for _, rc := range sb.clusters {
		sb.info.Clusters = append(sb.info.Clusters, rc.info)
		sb.report.PreRenderedFrames += frames
	}
	return sb, nil
}

// commit writes a built segment's payloads to the store and appends it to
// the manifest and its report.
func (sb *segmentBuild) commit(video string, st *store.Store, man *Manifest) error {
	si := sb.info.Index
	if err := st.Put(Ref{Video: video, Kind: Orig, Seg: si}.StoreKey(), sb.orig, nil); err != nil {
		return err
	}
	for t, rungs := range sb.tiles {
		for r, payload := range rungs {
			if err := st.Put(Ref{Video: video, Kind: Tile, Seg: si, A: t, B: r}.StoreKey(), payload, nil); err != nil {
				return err
			}
		}
	}
	if sb.info.Tiles != nil {
		if err := st.Put(Ref{Video: video, Kind: TileLow, Seg: si}.StoreKey(), sb.low, nil); err != nil {
			return err
		}
	}
	for ci, rc := range sb.clusters {
		if err := st.Put(Ref{Video: video, Kind: FOV, Seg: si, A: ci}.StoreKey(), rc.payload, rc.meta); err != nil {
			return err
		}
	}
	man.Segments = append(man.Segments, sb.info)
	man.Report.DetectorInvocations += sb.report.DetectorInvocations
	man.Report.PreRenderedFrames += sb.report.PreRenderedFrames
	man.Report.EmbeddedSemantics = man.Report.EmbeddedSemantics || sb.report.EmbeddedSemantics
	return nil
}

// rungQuality maps a quality rung to a codec quality: each rung doubles
// the base quantization (coarser as r grows), clamped to the codec range.
func rungQuality(base, rung int) int {
	q := base << rung
	if q > 64 {
		q = 64
	}
	if q < 1 {
		q = 1
	}
	return q
}

// buildTiles cuts one rendered segment into the tile grid, encodes every
// tile at each quality rung, and the low-res backfill stream, into sb.
// Encoding fans out across the build's workers; each payload lands in its
// (tile, rung) slot, so the result is the same for any worker count.
func (b *segmentBuilder) buildTiles(sb *segmentBuild, full []*frame.Frame) error {
	v, cfg, lay, si := b.v, b.cfg, b.tiling, sb.info.Index
	g := tiling.Grid{Cols: lay.Cols, Rows: lay.Rows}
	nTiles := g.Tiles()
	// Cut each tile's frame sequence once; every rung re-encodes the same
	// pixels at a different quality.
	tileFrames := make([][]*frame.Frame, nTiles)
	if err := parallelFor(nTiles, b.workers, func(t int) error {
		tf := make([]*frame.Frame, len(full))
		for f, fr := range full {
			tf[f] = g.Extract(fr, t)
		}
		tileFrames[t] = tf
		return nil
	}); err != nil {
		return err
	}
	sb.tiles = make([][][]byte, nTiles)
	for t := range sb.tiles {
		sb.tiles[t] = make([][]byte, lay.Rungs)
	}
	err := parallelFor(nTiles*lay.Rungs, b.workers, func(i int) error {
		t, r := i/lay.Rungs, i%lay.Rungs
		cc := cfg.Codec
		cc.Quality = rungQuality(cfg.Codec.Quality, r)
		bits, err := codec.EncodeSequence(cc, tileFrames[t])
		if err != nil {
			return fmt.Errorf("server: encoding tile %d rung %d of %s segment %d: %w", t, r, v.Name, si, err)
		}
		payload, err := delivery.MarshalTile(&delivery.TilePayload{Cols: g.Cols, Rows: g.Rows, Tile: t, Rung: r, Bits: bits})
		if err != nil {
			return err
		}
		sb.tiles[t][r] = payload
		return nil
	})
	if err != nil {
		return err
	}
	info := &TileSegInfo{TileBytes: make([][]int, nTiles)}
	for t, rungs := range sb.tiles {
		info.TileBytes[t] = make([]int, len(rungs))
		for r, payload := range rungs {
			info.TileBytes[t][r] = len(payload)
		}
	}
	// Backfill stream: the whole panorama downscaled by the layout's LowDiv,
	// encoded at the coarsest rung quality — its only job is to paper
	// over mispredicted or lost tiles.
	down, err := display.NewScaler(cfg.FullW/lay.LowDiv, cfg.FullH/lay.LowDiv)
	if err != nil {
		return err
	}
	lowFrames := make([]*frame.Frame, len(full))
	for f, fr := range full {
		if lowFrames[f], err = down.Apply(fr); err != nil {
			return err
		}
	}
	lc := cfg.Codec
	lc.Quality = rungQuality(cfg.Codec.Quality, lay.Rungs-1)
	lowBits, err := codec.EncodeSequence(lc, lowFrames)
	if err != nil {
		return fmt.Errorf("server: encoding tile backfill of %s segment %d: %w", v.Name, si, err)
	}
	if sb.low, err = codec.AppendSegment(nil, lowBits); err != nil {
		return err
	}
	info.LowBytes = len(sb.low)
	sb.info.Tiles = info
	return nil
}

// detectedClusterTracks runs the full vision pipeline on a segment: detect
// per frame, track identities, cluster the key-frame detections, and emit
// per-cluster per-frame centroid orientations.
func detectedClusterTracks(v scene.VideoSpec, cfg IngestConfig, full []*frame.Frame, rep *IngestReport) [][]geom.Orientation {
	keyDets := vision.Detect(full[0], cfg.Projection)
	rep.DetectorInvocations++
	if len(keyDets) == 0 {
		return nil
	}
	dirs := make([]geom.Vec3, len(keyDets))
	for i, d := range keyDets {
		dirs[i] = d.Dir
	}
	clusters := vision.KMeans(dirs, len(dirs), 1) // one cluster per object

	// One tracker shared by all clusters; membership fixed at the keyframe.
	tracker := vision.NewTracker(0.4, 10)
	keyTracks := tracker.Update(keyDets, 0)
	memberIDs := make([]map[int]bool, len(clusters))
	for ci, cl := range clusters {
		memberIDs[ci] = map[int]bool{}
		for _, m := range cl.Members {
			// Track IDs are assigned in detection order on the first update.
			memberIDs[ci][keyTracks[m].ID] = true
		}
	}

	out := make([][]geom.Orientation, len(clusters))
	for ci := range out {
		out[ci] = make([]geom.Orientation, len(full))
	}
	for f := 0; f < len(full); f++ {
		if f > 0 {
			dets := vision.Detect(full[f], cfg.Projection)
			rep.DetectorInvocations++
			tracker.Update(dets, float64(f)/float64(v.FPS))
		}
		live := tracker.Tracks()
		for ci := range clusters {
			var sum geom.Vec3
			n := 0
			for _, tr := range live {
				if memberIDs[ci][tr.ID] {
					sum = sum.Add(tr.Dir)
					n++
				}
			}
			if n > 0 && sum.Norm() > 1e-12 {
				out[ci][f] = geom.LookAt(sum.Normalize())
			} else if f > 0 {
				out[ci][f] = out[ci][f-1]
			}
		}
	}
	return out
}

// embeddedClusterTracks derives cluster trajectories straight from the
// capture-embedded object annotations: no detector, no tracker.
func embeddedClusterTracks(v scene.VideoSpec, start, frames int) [][]geom.Orientation {
	objs := v.ObjectsAt(float64(start) / float64(v.FPS))
	if len(objs) == 0 {
		return nil
	}
	dirs := make([]geom.Vec3, len(objs))
	for i, o := range objs {
		dirs[i] = o.Dir
	}
	clusters := vision.KMeans(dirs, len(dirs), 1) // one cluster per object
	out := make([][]geom.Orientation, len(clusters))
	for ci, cl := range clusters {
		out[ci] = make([]geom.Orientation, frames)
		for f := 0; f < frames; f++ {
			t := float64(start+f) / float64(v.FPS)
			states := v.ObjectsAt(t)
			var sum geom.Vec3
			for _, m := range cl.Members {
				sum = sum.Add(states[m].Dir)
			}
			if sum.Norm() > 1e-12 {
				out[ci][f] = geom.LookAt(sum.Normalize())
			}
		}
	}
	return out
}

// renderedCluster is the in-memory result of pre-rendering one cluster,
// produced by the parallel fan-out and committed to the store in order.
type renderedCluster struct {
	info    ClusterInfo
	payload []byte
	meta    []byte // the FOVMeta payload
}

// preRenderCluster pre-renders and encodes one cluster's FOV video from its
// per-frame trajectory orientations. It only reads shared state, so clusters
// of a segment pre-render concurrently.
//
// A track that carries its centroid forward repeats the previous frame's
// pose exactly; those frames render through the exact mapping table of that
// pose (ptlut, byte-identical to the direct render by the conformance
// proof), built on the first repeat and dropped when the pose moves, so the
// mapping stage runs once per resting pose instead of once per frame.
func preRenderCluster(v scene.VideoSpec, cfg IngestConfig, ptCfg pt.Config,
	full []*frame.Frame, si, ci int, centers []geom.Orientation, workers int) (renderedCluster, error) {

	fovFrames := make([]*frame.Frame, len(full))
	meta := make([]FrameMeta, len(full))
	var held *ptlut.Table // the table of the pose the track is resting on
	for f := 0; f < len(full); f++ {
		o := centers[f]
		meta[f] = FrameMeta{Yaw: o.Yaw, Pitch: o.Pitch}
		// Server-side PT: the pre-rendering that spares the client (§5.2).
		var fov *frame.Frame
		var err error
		if f > 0 && o == centers[f-1] {
			if held == nil {
				held, err = ptlut.Build(ptCfg, o, cfg.FullW, cfg.FullH, false, workers)
			}
			if err == nil {
				fov, err = held.Render(full[f], workers)
			}
		} else {
			held = nil
			fov, err = pt.RenderParallelChecked(ptCfg, full[f], o, workers)
		}
		if err != nil {
			return renderedCluster{}, fmt.Errorf("server: pre-rendering FOV video %d/%d of %s: %w", si, ci, v.Name, err)
		}
		fovFrames[f] = fov
	}
	bits, err := codec.EncodeSequence(cfg.Codec, fovFrames)
	if err != nil {
		return renderedCluster{}, fmt.Errorf("server: encoding FOV video %d/%d of %s: %w", si, ci, v.Name, err)
	}
	payload, err := codec.AppendSegment(nil, bits)
	if err != nil {
		return renderedCluster{}, err
	}
	for _, fov := range fovFrames {
		pt.Recycle(fov)
	}
	return renderedCluster{
		info:    ClusterInfo{ID: ci, Bytes: len(payload), Pose: meta[0], Meta: meta},
		payload: payload,
		meta:    MarshalFrameMeta(meta),
	}, nil
}

// parallelFor runs fn(0..n-1) on a pool of `workers` goroutines and returns
// the first error (remaining items still run; work items must be
// independent).
func parallelFor(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// UnmarshalBitstream parses an original, FOV or backfill payload: one
// codec segment (codec.ParseSegment). The bitstream aliases the payload.
func UnmarshalBitstream(payload []byte) (*codec.Bitstream, error) {
	return codec.ParseSegment(payload)
}
