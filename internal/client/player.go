package client

import (
	"fmt"
	"math"
	"net/http"

	"evr/internal/codec"
	"evr/internal/delivery"
	"evr/internal/display"
	"evr/internal/fixed"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/hmd"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
	"evr/internal/ptlut"
	"evr/internal/sas"
	"evr/internal/server"
	"evr/internal/telemetry"
)

// Player is the pixel-exact EVR playback client: it speaks the server's
// HTTP protocol, decodes real bitstreams, runs the FOV checker on every
// frame, and renders misses through the PTE (or the reference float
// pipeline when HAR is disabled). All network traffic flows through the
// fetch layer (Fetcher): per-request timeouts, bounded retries, a segment
// cache, and next-segment prefetching. The fetch layer hands over encoded
// segments; Play decodes each frame when it is displayed, into rasters it
// reuses for the whole session. It is the integration-level counterpart of
// the behavioral Simulate path.
type Player struct {
	BaseURL string
	// HTTP optionally overrides the transport. nil (the default from
	// NewPlayer) means a timeout-bearing client built from Fetch.Timeout;
	// the per-attempt timeout applies either way.
	HTTP *http.Client
	// Fetch tunes the fetch layer (timeout, retries, cache, prefetch).
	// Changes take effect until the first Play constructs the fetcher.
	Fetch FetchConfig
	// UseHAR renders fallback frames on the PTE accelerator; otherwise the
	// reference (GPU-style) float pipeline is used.
	UseHAR bool
	// UseLUT renders fallback frames through the pose-quantized mapping-LUT
	// cache instead of re-running the full per-pixel mapping (ignored when
	// UseHAR is set — the PTE is its own datapath). With LUTOptions zero the
	// output stays byte-identical to the reference pipeline; renders at a
	// repeated (quantized) pose skip the mapping stage entirely.
	UseLUT bool
	// LUTOptions tunes the LUT accuracy/sharing trade-off (pose grid step,
	// fixed-point weights). The zero value is exact mode.
	LUTOptions ptlut.Options
	// LUTCache optionally shares one mapping-table cache across players (and
	// with the server's pre-render path). nil gives this player its own
	// default-budget cache when UseLUT is set.
	LUTCache *ptlut.Cache
	// ViewportScale shrinks the rendered viewport by this linear factor to
	// keep pixel work tractable (energy accounting always uses nominal
	// sizes; the player is about end-to-end correctness).
	ViewportScale int
	// Resilient keeps playback alive through corrupt or missing payloads,
	// from the frame that fails (a payload broken past its frame headers
	// fails only when that frame is decoded): a broken FOV video plays the
	// rest of the segment from the original, a broken original freezes the
	// last displayed frame, and a broken tiled backfill degrades the segment
	// to the original. Without it, errors abort. A broken tile never aborts:
	// its rectangle stays at backfill quality either way.
	Resilient bool
	// Tiled configures the viewport-adaptive tiled delivery mode: a
	// per-segment three-way policy decision (FOV stream / per-tile set /
	// full original) against videos ingested with tile streams. The zero
	// value keeps the classic FOV/orig behavior.
	Tiled TiledConfig
	// PTEFormat overrides the PTE fixed-point format (the HAR bitwidth knob
	// for heterogeneous fleets). The zero value keeps the default Q28.10.
	// Ignored unless UseHAR is set.
	PTEFormat fixed.Format
	// Workers sets the render worker pool for FOV-miss fallback frames
	// (0 = one worker per PTU on the PTE path, GOMAXPROCS on the reference
	// path). Output is byte-identical for every worker count.
	Workers int
	// Trace, when non-nil, records per-frame pipeline-stage timings
	// (fetch, decode, FOV check, render, display) for this player and its
	// fetch layer. nil (the default) disables tracing at a cost of a few
	// nanoseconds per frame; pixels and playback accounting are identical
	// either way. Set it before the first Play, which wires the fetcher.
	Trace *telemetry.Tracer

	fetcher *Fetcher
}

// PlaybackStats summarizes one playback run. Every displayed frame is
// either a Hit (shown directly from a FOV video) or a Miss (needed the
// original stream — FOV checker miss, segment-level fallback, or frozen
// frame), so Hits+Misses == Frames always holds. Energy is the run priced
// by the price list Simulate charges (price.go).
type PlaybackStats struct {
	Energy
	Frames int
	Hits   int
	Misses int
	// Fallbacks counts the segments played from the original stream, from
	// their first frame (no FOV video, an orig policy decision) or from a
	// FOV miss or a degrade on.
	Fallbacks     int
	BytesFetched  int64 // bytes received over the wire (cache hits fetch nothing)
	PTEFrames     int
	LUTFrames     int // fallback frames rendered through the mapping-LUT cache
	PayloadErrors int // corrupt/missing payloads survived (Resilient mode)
	FrozenFrames  int // frames repeated because no content was decodable

	// Tiled-delivery counters (all zero unless Tiled.Enabled and the video
	// was ingested with tile streams). The Mode*Segments counters record
	// the policy's per-segment decisions and sum to the segment count.
	ModeFOVSegments   int // segments delivered as a pre-rendered FOV stream
	ModeTiledSegments int // segments delivered as an assembled tile set
	ModeOrigSegments  int // segments delivered as the full original panorama
	TiledTiles        int // tile payloads fetched and assembled
	TiledTileErrors   int // tile fetches that failed and fell to backfill quality
	MispredictedTiles int // frame-tiles needed at the actual pose but not fetched
	ModeledStalls     int // rebuffer events on the modeled link timeline
	ModeledStallSec   float64
	ModeledStartupSec float64
	ModeledBytes      int64 // wire bytes on the modeled timeline (policy accounting)

	// Fetch-layer counters for this run.
	CacheHits       int // demand fetches served from cache or in-flight dedup
	PrefetchHits    int // subset of CacheHits filled by the prefetcher
	Retries         int // retried HTTP attempts
	RetryAfterWaits int // retries whose delay honored a server Retry-After hint
	TimedOut        int // HTTP attempts cut off by the per-request timeout

	// Live-serving counters (all zero unless the video is a live stream).
	LiveWaits        int     // 425 too-early responses waited out at the live edge
	LiveSegments     int     // fetches observed at or past the live edge at join
	BehindLiveMaxSec float64 // worst time-behind-live among those fetches
}

// Add sums another run's counters into s: the one way sessions are summed.
// BehindLiveMaxSec keeps the larger of the two.
func (s *PlaybackStats) Add(o PlaybackStats) {
	s.Energy.Add(o.Energy)
	s.Frames += o.Frames
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Fallbacks += o.Fallbacks
	s.BytesFetched += o.BytesFetched
	s.PTEFrames += o.PTEFrames
	s.LUTFrames += o.LUTFrames
	s.PayloadErrors += o.PayloadErrors
	s.FrozenFrames += o.FrozenFrames
	s.ModeFOVSegments += o.ModeFOVSegments
	s.ModeTiledSegments += o.ModeTiledSegments
	s.ModeOrigSegments += o.ModeOrigSegments
	s.TiledTiles += o.TiledTiles
	s.TiledTileErrors += o.TiledTileErrors
	s.MispredictedTiles += o.MispredictedTiles
	s.ModeledStalls += o.ModeledStalls
	s.ModeledStallSec += o.ModeledStallSec
	s.ModeledStartupSec += o.ModeledStartupSec
	s.ModeledBytes += o.ModeledBytes
	s.CacheHits += o.CacheHits
	s.PrefetchHits += o.PrefetchHits
	s.Retries += o.Retries
	s.RetryAfterWaits += o.RetryAfterWaits
	s.TimedOut += o.TimedOut
	s.LiveWaits += o.LiveWaits
	s.LiveSegments += o.LiveSegments
	s.BehindLiveMaxSec = max(s.BehindLiveMaxSec, o.BehindLiveMaxSec)
}

// NewPlayer returns a player against an EVR server base URL, with the
// default fetch layer: timeout-bearing HTTP client, retries with backoff,
// segment cache, and next-segment prefetching.
func NewPlayer(baseURL string) *Player {
	return &Player{
		BaseURL:       baseURL,
		Fetch:         DefaultFetchConfig(),
		UseHAR:        true,
		ViewportScale: 40,
	}
}

// Fetcher returns the player's fetch layer, constructing it on first use
// from the Fetch config and the optional HTTP override.
func (p *Player) Fetcher() *Fetcher {
	if p.fetcher == nil {
		p.fetcher = NewFetcher(p.Fetch, p.HTTP)
		p.fetcher.trace = p.Trace // fetch/decode stages land in the player's tracer
	}
	return p.fetcher
}

// Play streams a video while replaying head movement from the IMU and
// returns the playback statistics together with the displayed frames.
// maxSegments bounds the run (0 = all ingested segments).
func (p *Player) Play(video string, imu *hmd.IMU, maxSegments int) (stats PlaybackStats, displayed []*frame.Frame, err error) {
	ftch := p.Fetcher()
	before := ftch.Counters()
	var frameSec float64 // one frame's display time, from the manifest
	defer func() {
		// Let in-flight prefetches land before accounting so BytesFetched
		// is stable run to run.
		ftch.Wait()
		after := ftch.Counters()
		stats.BytesFetched = after.BytesFetched - before.BytesFetched
		stats.CacheHits = int(after.CacheHits - before.CacheHits)
		stats.PrefetchHits = int(after.PrefetchHits - before.PrefetchHits)
		stats.Retries = int(after.Retries - before.Retries)
		stats.RetryAfterWaits = int(after.RetryAfterWaits - before.RetryAfterWaits)
		stats.TimedOut = int(after.TimedOut - before.TimedOut)
		stats.LiveWaits = int(after.LiveWaits - before.LiveWaits)
		stats.LiveSegments = int(after.LiveSegments - before.LiveSegments)
		stats.BehindLiveMaxSec = float64(after.BehindLiveNsMax) / 1e9
		// Every received byte is priced once, as decoded.
		stats.chargeReceived(stats.BytesFetched, false)
		stats.chargeDecodeBytes(float64(stats.BytesFetched))
		stats.Ledger.AdvanceTime(float64(stats.Frames) * frameSec)
	}()

	man, err := ftch.Manifest(p.BaseURL, video)
	if err != nil {
		return stats, nil, err
	}
	if man.Live {
		// Record where the live edge stood at join: segments at or past it
		// count toward freshness, the DVR backlog behind it does not.
		ftch.SetLiveEdge(video, man.LiveEdge)
	}
	vp := headset.ScaledViewport(p.ViewportScale)
	warp, tolerance, err := hitWarp(man, headset, vp)
	if err != nil {
		return stats, nil, err
	}
	if man.FPS <= 0 {
		return stats, nil, fmt.Errorf("client: manifest has no frame rate (fps %d)", man.FPS)
	}
	frameSec = 1 / float64(man.FPS)
	fovBytes := fovFrameBytes(man.FOVXDeg)
	method := projection.Method(man.Projection)
	refCfg := pt.Config{Projection: method, Filter: pt.Bilinear, Viewport: vp}
	// Reject a nonsensical manifest (unknown projection, degenerate
	// viewport) before the playback loop rather than mid-render.
	if err := refCfg.Validate(); err != nil {
		return stats, nil, err
	}
	// Pick the fallback-frame renderer once: the PTE, the mapping LUT, or
	// the reference float pipeline. rendered counts the frames it produced;
	// chargePT prices them, the LUT as the float path it copies.
	render := func(full *frame.Frame, o geom.Orientation) (*frame.Frame, error) {
		return pt.RenderParallelChecked(refCfg, full, o, p.Workers)
	}
	rendered := new(int) // the float path keeps no count
	chargePT := stats.chargeGPU
	switch {
	case p.UseHAR:
		pcfg := pte.DefaultConfig(method, pt.Bilinear, vp)
		if p.PTEFormat != (fixed.Format{}) {
			pcfg.Format = p.PTEFormat
		}
		engine, err := pte.New(pcfg)
		if err != nil {
			return stats, nil, err
		}
		render = func(full *frame.Frame, o geom.Orientation) (*frame.Frame, error) {
			return engine.RenderParallelChecked(full, o, p.Workers)
		}
		rendered = &stats.PTEFrames
		chargePT = func() { stats.chargePTE(false) }
	case p.UseLUT:
		if p.LUTCache == nil {
			p.LUTCache = ptlut.NewCache(0, nil) // reused across Play calls
		}
		lut, err := ptlut.NewRenderer(refCfg, p.LUTCache, p.LUTOptions)
		if err != nil {
			return stats, nil, err
		}
		render = func(full *frame.Frame, o geom.Orientation) (*frame.Frame, error) {
			return lut.RenderChecked(full, o, p.Workers)
		}
		rendered = &stats.LUTFrames
	}
	// ts is nil unless tiled delivery is enabled AND this video carries
	// tile streams; every tiled branch below is gated on it.
	ts, err := newTiledSession(p.Tiled, man, headset.FOVXDeg, headset.FOVYDeg)
	if err != nil {
		return stats, nil, err
	}

	frameIdx := 0
	dec := decision{tolerance: tolerance}
	var first []geom.Orientation // a segment's FOV videos' first-frame poses
	// One reader per stream role for the whole session: segments are
	// independently decodable GOPs (§5.3), so a reader moves to the next
	// segment's stream and keeps its decoder's rasters.
	var fov, orig streamReader
	var fovMeta []server.FrameMeta
	// read decodes frame f of a source's current stream.
	read := func(src source, f int) (*frame.Frame, error) {
		switch src {
		case fromFOV:
			return fov.frame(f)
		case fromTiles:
			return ts.frame(f, &stats)
		}
		return orig.frame(f)
	}
	for si := range man.Segments {
		seg := &man.Segments[si]
		if maxSegments > 0 && seg.Index >= maxSegments {
			break
		}
		if imu.Frames() <= frameIdx {
			break
		}
		gaze := imu.At(frameIdx)
		// The segment starts on its FOV video nearest the gaze, or on the
		// original if it has none. A real prefetcher has no resync hole.
		first = clusterPoses(first, seg)
		ci, src := dec.segment(first, gaze), fromOrig // ci indexes seg.Clusters
		if ci >= 0 {
			src = fromFOV
		}
		// Tiled delivery: the three-way policy decision picks the source.
		var plan tiledPlan
		if ts != nil && seg.Tiles != nil {
			plan = ts.plan(seg, imu.Trace(), frameIdx, ci, tolerance)
			switch plan.mode {
			case delivery.ModeFOV:
				stats.ModeFOVSegments++
			case delivery.ModeTiled:
				stats.ModeTiledSegments++
				src = fromTiles
			default:
				stats.ModeOrigSegments++
				src = fromOrig
			}
		}

		// While this segment plays, warm the cache with the next segment's
		// best-guess FOV video and its original-segment fallback, so the
		// segment-boundary fetch — and a mid-segment FOV miss there —
		// find the bytes waiting (§5.3 latency hiding). The fetcher
		// deduplicates against the demand fetches below via singleflight.
		// Tiled sessions skip this warm-up: which payloads the next segment
		// needs is the policy's call, and speculative full-segment fetches
		// would defeat the bytes-on-wire accounting the mode exists for.
		if ts == nil && si+1 < len(man.Segments) {
			next := man.Segments[si+1]
			if !(maxSegments > 0 && next.Index >= maxSegments) {
				first = clusterPoses(first, &next)
				if i := sas.ChooseTrack(first, gaze); i >= 0 {
					ftch.Prefetch(p.BaseURL, server.Ref{Video: video, Kind: server.FOV, Seg: next.Index, A: next.Clusters[i].ID})
				}
				ftch.Prefetch(p.BaseURL, server.Ref{Video: video, Kind: server.Orig, Seg: next.Index})
			}
		}

		// enter fetches the payload a source plays from and points its
		// reader at it: the one place a payload failure is decided. A player
		// that is not resilient returns the error; a resilient one counts it
		// and steps down to the original (§5.4), and an original that fails
		// leaves a nil stream, whose frames freeze. Every entry to the
		// original is a Fallback.
		enter := func(src source) (source, error) {
			for {
				var bits *codec.Bitstream
				var err error
				switch src {
				case fromFOV:
					bits, fovMeta, err = ftch.Segment(p.BaseURL, server.Ref{Video: video, Kind: server.FOV, Seg: seg.Index, A: seg.Clusters[ci].ID})
					fov.load(bits)
				case fromTiles:
					err = p.fetchTiled(ts, video, seg, plan, &stats)
				default:
					bits, _, err = ftch.Segment(p.BaseURL, server.Ref{Video: video, Kind: server.Orig, Seg: seg.Index})
					orig.load(bits)
				}
				if err != nil {
					if !p.Resilient {
						return src, err
					}
					stats.PayloadErrors++
				}
				if src == fromOrig {
					stats.Fallbacks++
					return src, nil
				}
				if err == nil {
					return src, nil
				}
				src = fromOrig
			}
		}
		fov.load(nil)
		orig.load(nil)
		fovMeta = nil
		if src, err = enter(src); err != nil {
			return stats, nil, err
		}
		if ts != nil && seg.Tiles != nil {
			// Advance the modeled link timeline by what the segment actually
			// shipped: a tiled segment that lost its backfill cost the original.
			b := plan.bytes
			if plan.mode == delivery.ModeTiled && src != fromTiles {
				b = int64(seg.OrigBytes)
			}
			ts.timeline.Advance(b)
		}

		for f := 0; f < seg.Frames && frameIdx < imu.Frames(); f, frameIdx = f+1, frameIdx+1 {
			sp := p.Trace.StartFrame(seg.Index, frameIdx)
			o := imu.At(frameIdx)
			verdict, catchUp := ptFrame, 0
			var meta geom.Orientation // the pose the FOV frame was rendered for
			sp.Start(telemetry.StageFOVCheck)
			if src == fromFOV {
				if f < fov.frames() { // the fetcher checked one pose per frame
					meta = geom.Orientation{Yaw: fovMeta[f].Yaw, Pitch: fovMeta[f].Pitch}
					verdict, _, catchUp = dec.frame(f, meta, o)
					stats.chargeFOVCheck()
				} else { // a FOV video shorter than its segment misses unchecked
					verdict, catchUp = dec.miss(f)
				}
			}
			sp.Stop(telemetry.StageFOVCheck)
			hit := verdict == hitFrame
			var err error
			if verdict == firstMiss {
				// The rest of the segment plays from the original.
				src, err = enter(fromOrig)
				stats.chargeCatchUp(catchUp)
			}
			// img is the frame this one is made from, decoded on demand from
			// src; nil means nothing is decodable. A frame that does not
			// decode steps down one rung and is retried there; an original
			// frame that does not decode freezes the rest of the segment.
			var img *frame.Frame
			for err == nil {
				sp.Start(telemetry.StageDecode)
				img, err = read(src, f)
				sp.Stop(telemetry.StageDecode)
				if err == nil || !p.Resilient {
					break
				}
				stats.PayloadErrors++
				hit = false
				if src == fromOrig {
					orig.load(nil)
					err = nil
					break
				}
				src, err = enter(fromOrig)
			}
			if err != nil {
				sp.Finish() // record the partially-timed frame
				return stats, nil, err
			}
			if src == fromTiles {
				ts.countMispredicted(o, &stats)
			}
			// Every frame is a hit or a miss: Hits+Misses == Frames.
			if hit {
				stats.Hits++
			} else {
				stats.Misses++
			}
			var out *frame.Frame
			switch {
			case hit:
				// Direct display: the display processor warps the user's
				// view out of the margin-padded FOV frame by the head
				// rotation since the frame's pose — one planar homography,
				// no PT (§2).
				sp.Start(telemetry.StageDisplay)
				out, err = warp.Apply(img, meta.Matrix().Transpose().Mul(o.Matrix()))
				sp.Stop(telemetry.StageDisplay)
				stats.chargeHit(fovBytes, p.UseHAR)
			case img != nil:
				// A panorama, original or assembled: the client pays PT.
				sp.Start(telemetry.StageRender)
				out, err = render(img, o)
				sp.Stop(telemetry.StageRender)
				if err == nil {
					*rendered++
					stats.chargeDecode(float64(nominalW)*float64(nominalH), panoramaBytes)
					chargePT()
				}
			case p.Resilient && len(displayed) > 0:
				// Nothing decodable: repeat the last good frame.
				out = displayed[len(displayed)-1]
				stats.FrozenFrames++
			default:
				out = frame.New(vp.Width, vp.Height)
			}
			if err != nil {
				sp.Finish()
				return stats, nil, err
			}
			displayed = append(displayed, out)
			stats.Frames++
			stats.chargeFrame(frameSec, 0, false)
			sp.SetHit(hit)
			sp.Finish()
		}
	}
	if ts != nil {
		stats.ModeledStalls = ts.timeline.Stalls
		stats.ModeledStallSec = ts.timeline.StallSec
		stats.ModeledStartupSec = ts.timeline.StartupDelay
		stats.ModeledBytes = ts.timeline.Bytes
	}
	return stats, displayed, nil
}

// source is the stream a segment's frames come from. A segment starts on the
// FOV video, the tiled assembly or the original, and only moves down: from
// either of the first two to the original, whose loss freezes the rest of
// the segment.
type source uint8

const (
	fromFOV source = iota
	fromTiles
	fromOrig
)

// streamReader plays one stream role of a session — the FOV video, the
// original, the tiled backfill or one tile index — frame by frame: a decoder
// that outlives the segments, the current segment's stream, and how far into
// it the decoder is. Each segment starts with an I-frame, so moving to the
// next segment's stream needs no new decoder.
type streamReader struct {
	dec  codec.Decoder
	bits *codec.Bitstream
	next int          // frames [0, next) of bits have been decoded
	cur  *frame.Frame // frame next-1, valid until the next decode
}

// load points the reader at a segment's stream (nil: none).
func (r *streamReader) load(bits *codec.Bitstream) { r.bits, r.next, r.cur = bits, 0, nil }

// frames is the length of the current stream.
func (r *streamReader) frames() int {
	if r.bits == nil {
		return 0
	}
	return len(r.bits.Frames)
}

// frame decodes forward to frame i of the current stream and returns it; the
// frame is valid until the reader decodes again. Frame i of a P-chain needs
// every frame before it, so the first request mid-segment decodes from the
// I-frame; asking for an earlier frame than the last starts over. A frame
// past the stream's end is nil: there is nothing to show.
func (r *streamReader) frame(i int) (*frame.Frame, error) {
	if i >= r.frames() {
		return nil, nil
	}
	if i < r.next-1 {
		r.next = 0
	}
	for ; r.next <= i; r.next++ {
		f, err := r.dec.Decode(r.bits, r.next)
		if err != nil {
			return nil, fmt.Errorf("client: frame %d: %w", r.next, err)
		}
		r.cur = f
	}
	return r.cur, nil
}

// clusterPoses fills buf with each of a segment's FOV videos' first pose.
func clusterPoses(buf []geom.Orientation, seg *server.SegmentInfo) []geom.Orientation {
	buf = buf[:0]
	for _, cl := range seg.Clusters {
		buf = append(buf, geom.Orientation{Yaw: cl.Pose.Yaw, Pitch: cl.Pose.Pitch})
	}
	return buf
}

// hitWarp returns the warp showing a hit from the manifest's FOV frames on
// vp, and the hit tolerance: sas.Tolerance of their margins over the HMD's.
// It refuses a manifest not wider than the HMD on both axes, or one letting
// a hit turn a viewport corner to or past 90° off axis, where the plane ends.
func hitWarp(man *server.Manifest, h hmd.Config, vp projection.Viewport) (*display.Warp, float64, error) {
	if !(man.FOVXDeg > h.FOVXDeg && man.FOVYDeg > h.FOVYDeg) {
		return nil, 0, fmt.Errorf("client: manifest FOV %v°×%v° not wider than HMD %v°×%v°", man.FOVXDeg, man.FOVYDeg, h.FOVXDeg, h.FOVYDeg)
	}
	tolerance := sas.Tolerance(man.FOVXDeg-h.FOVXDeg, man.FOVYDeg-h.FOVYDeg)
	corner := math.Atan(math.Hypot(math.Tan(geom.Radians(h.FOVXDeg)/2), math.Tan(geom.Radians(h.FOVYDeg)/2)))
	if corner+tolerance >= math.Pi/2 {
		return nil, 0, fmt.Errorf("client: manifest FOV %v°×%v° too wide for HMD %v°×%v°: a hit may turn a viewport corner %.1f° from the frame's axis",
			man.FOVXDeg, man.FOVYDeg, h.FOVXDeg, h.FOVYDeg, geom.Degrees(corner+tolerance))
	}
	warp, err := display.NewWarp(vp, geom.Radians(man.FOVXDeg), geom.Radians(man.FOVYDeg))
	return warp, tolerance, err
}
