// Package evr is the public API of this repository: a full reproduction of
// "Energy-Efficient Video Processing for Virtual Reality" (Leng, Chen, Sun,
// Huang, Zhu — ISCA 2019).
//
// EVR attacks the "VR tax" — the projective transformation (PT) every 360°
// video frame pays before display — with two primitives:
//
//   - Semantic-Aware Streaming (SAS): the cloud detects and clusters the
//     visual objects users track, pre-renders per-cluster FOV videos, and
//     streams those; a FOV hit displays directly with no PT on device.
//   - Hardware-Accelerated Rendering (HAR): a fixed-point Projective
//     Transformation Engine (PTE) replaces the GPU for on-device PT.
//
// The facade re-exports the pieces a downstream user needs:
//
//	sys := evr.NewSystem()
//	video, _ := evr.VideoByName("Rhino")
//	sys.Prepare(video)
//	base, _ := sys.Evaluate("Rhino", evr.Baseline, evr.OnlineStreaming, evr.EvaluateOptions{Users: 10})
//	both, _ := sys.Evaluate("Rhino", evr.SH, evr.OnlineStreaming, evr.EvaluateOptions{Users: 10})
//	fmt.Printf("S+H saves %.0f%% device energy\n", both.DeviceSavingPct(base))
//
// The HTTP streaming service and the pixel-exact player are exposed through
// their own types below; the paper's figures come from cmd/evrbench.
package evr

import (
	"evr/internal/client"
	"evr/internal/delivery"
	"evr/internal/fixed"
	"evr/internal/frame"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/projection"
	"evr/internal/ptlut"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
	"evr/internal/telemetry"
)

// System orchestration.
type (
	// System is an end-to-end EVR deployment (cloud analysis + device).
	System = client.System
	// Summary aggregates an evaluation run over a user population.
	Summary = client.Summary
	// EvaluateOptions tunes an evaluation run.
	EvaluateOptions = client.EvaluateOptions
)

// NewSystem returns a system at the paper's default design point.
func NewSystem() *System { return client.NewSystem() }

// Device variants and use-cases (§8.1).
type (
	// Variant selects which EVR primitives are active.
	Variant = client.Variant
	// UseCase selects the deployment scenario.
	UseCase = client.UseCase
)

const (
	// Baseline is today's pipeline: full streaming + GPU PT.
	Baseline = client.Baseline
	// S enables semantic-aware streaming only.
	S = client.S
	// H enables hardware-accelerated rendering only.
	H = client.H
	// SH combines both primitives.
	SH = client.SH

	// OnlineStreaming plays published content from an EVR server.
	OnlineStreaming = client.OnlineStreaming
	// LiveStreaming plays a live feed (SAS unavailable).
	LiveStreaming = client.LiveStreaming
	// OfflinePlayback plays from local storage (no network).
	OfflinePlayback = client.OfflinePlayback
)

// Content and traces.
type (
	// VideoSpec is a synthetic 360° video with ground-truth objects.
	VideoSpec = scene.VideoSpec
	// Trace is one user's head movement over one video.
	Trace = headtrace.Trace
)

// Videos returns the full synthetic stand-in catalog for the paper's
// video set.
func Videos() []VideoSpec { return scene.Catalog() }

// VideoByName looks up one catalog video.
func VideoByName(name string) (VideoSpec, bool) { return scene.ByName(name) }

// GenerateTrace produces the deterministic head trace of one user.
func GenerateTrace(v VideoSpec, user int) Trace { return headtrace.Generate(v, user) }

// IMU replays a head trace as per-frame sensor readings from the
// head-mounted display.
type IMU = hmd.IMU

// NewIMU wraps a trace for replay.
func NewIMU(trace Trace) *IMU { return hmd.NewIMU(trace) }

// Streaming service and pixel-exact playback.
type (
	// Service is the EVR cloud streaming server.
	Service = server.Service
	// IngestConfig parameterizes the pixel ingest pipeline.
	IngestConfig = server.IngestConfig
	// Player is the HTTP playback client.
	Player = client.Player
	// Store is the log-structured SAS store.
	Store = store.Store
	// RespCacheStats is a snapshot of the server response cache.
	RespCacheStats = server.RespCacheStats
)

// NewService returns a streaming service over a fresh store.
func NewService() *Service { return server.NewService(store.New()) }

// DefaultIngestConfig returns a test-scale ingest pipeline configuration.
func DefaultIngestConfig() IngestConfig { return server.DefaultIngestConfig() }

// NewPlayer returns a playback client for an EVR server URL.
func NewPlayer(baseURL string) *Player { return client.NewPlayer(baseURL) }

// Telemetry: the shared observability core (see internal/telemetry).
type (
	// Tracer records per-frame pipeline-stage timings; assign one to
	// Player.Trace to trace playback (nil = tracing off, near-zero cost).
	Tracer = telemetry.Tracer
	// StageSummary is one pipeline stage's aggregate timing report.
	StageSummary = telemetry.StageSummary
)

// NewTracer returns a pipeline tracer keeping the last `recent` per-frame
// traces (<= 0 uses the default ring size).
func NewTracer(recent int) *Tracer { return telemetry.NewTracer(recent) }

// Pose-quantized mapping-LUT render path (see internal/ptlut): memoizes the
// per-pixel mapping of a (pose, projection, viewport, input-dims) tuple in a
// bytes-budgeted LRU so repeated poses skip the mapping stage entirely.
type (
	// LUTCache is the bytes-budgeted LRU of mapping tables with
	// singleflight build coalescing; share one across players and ingests.
	LUTCache = ptlut.Cache
	// LUTCacheStats is a point-in-time snapshot of a LUTCache.
	LUTCacheStats = ptlut.CacheStats
	// LUTOptions tunes the LUT accuracy/sharing trade-off.
	LUTOptions = ptlut.Options
)

// Viewport-adaptive tiled delivery (see internal/delivery and DESIGN.md
// §14): a per-segment three-way policy between the pre-rendered FOV
// stream, a predicted-viewport tile set over a low-res backfill, and the
// full original panorama.
type (
	// DeliveryMode identifies one arm of the per-segment policy (FOV,
	// tiled, orig) or ModeAuto to let the policy decide.
	DeliveryMode = delivery.Mode
	// TiledConfig turns on tiled delivery in a Player (assign to
	// Player.Tiled); the zero value leaves the classic path untouched.
	TiledConfig = client.TiledConfig
)

// Live ingest (see internal/server/live.go and DESIGN.md §15): segments
// are produced on a clock schedule while serving, and ahead-of-edge
// requests get 425 + Retry-After.
type (
	// LiveStream ingests a video on a publish schedule with bounded
	// pipeline backpressure; hand it to Service.ServeLive before Start.
	LiveStream = server.LiveStream
	// LiveOptions configures live ingest: segment interval, pipeline
	// queue depth, and the clock (nil = wall clock).
	LiveOptions = server.LiveOptions
	// LiveClock is the schedule clock interface.
	LiveClock = server.Clock
)

// Value types the player and the service hand out.
type (
	// Frame is the RGB24 raster every render and codec path shares.
	Frame = frame.Frame
	// Projection identifies a panorama layout (ERP, CMP, EAC).
	Projection = projection.Method
	// FixedFormat is a PTE fixed-point format ([total bits, integer bits]).
	FixedFormat = fixed.Format
)
