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
// Deeper layers (the PTE simulator, the codec, the HTTP streaming service,
// the pixel-exact player) are exposed through their own types below.
package evr

import (
	"net/http"

	"evr/internal/abr"
	"evr/internal/capture"
	"evr/internal/client"
	"evr/internal/cluster"
	"evr/internal/codec"
	"evr/internal/conformance"
	"evr/internal/delivery"
	"evr/internal/experiments"
	"evr/internal/fixed"
	"evr/internal/frame"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/loadgen"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
	"evr/internal/ptlut"
	"evr/internal/quality"
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

// DatasetUsers is the size of the modeled user corpus (59, as in the paper).
const DatasetUsers = headtrace.DatasetUsers

// Hardware.
type (
	// PTEConfig is the Projective Transformation Engine simulator's register file.
	PTEConfig = pte.Config
	// HMD describes a head-mounted display.
	HMD = hmd.Config
)

// OSVRHDK2 returns the paper's evaluation HMD.
func OSVRHDK2() HMD { return hmd.OSVRHDK2() }

// IMU replays a head trace as per-frame sensor readings.
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
	// ServiceOptions tunes the serving layer: response cache budget,
	// admission control, and synthetic store latency for experiments.
	ServiceOptions = server.ServiceOptions
	// RespCacheStats is a snapshot of the server response cache.
	RespCacheStats = server.RespCacheStats
)

// NewService returns a streaming service over a fresh store.
func NewService() *Service { return server.NewService(store.New()) }

// NewServiceOpts returns a streaming service over a fresh store with an
// explicit serving-layer configuration.
func NewServiceOpts(opts ServiceOptions) *Service { return server.NewServiceOpts(store.New(), opts) }

// DefaultServiceOptions returns the serving-layer defaults (64 MiB response
// cache, no admission limit).
func DefaultServiceOptions() ServiceOptions { return server.DefaultServiceOptions() }

// DefaultIngestConfig returns a test-scale ingest pipeline configuration.
func DefaultIngestConfig() IngestConfig { return server.DefaultIngestConfig() }

// NewPlayer returns a playback client for an EVR server URL.
func NewPlayer(baseURL string) *Player { return client.NewPlayer(baseURL) }

// Multi-user load generation (cmd/evrload's engine).
type (
	// LoadConfig describes one multi-user load run against an EVR server.
	LoadConfig = loadgen.Config
	// LoadReport is the outcome: per-user results, per-pass aggregates,
	// and the request-latency distribution.
	LoadReport = loadgen.Report
)

// RunLoad executes a multi-user load run: Passes waves of every class's
// users (LoadConfig.Classes, at least one ClassSpec) as concurrent playback
// sessions, each replaying its deterministic head trace.
func RunLoad(cfg LoadConfig) (*LoadReport, error) { return loadgen.Run(cfg) }

// ServeLocal exposes a service on an ephemeral loopback listener and
// returns its base URL plus a shutdown func — the in-process target for
// RunLoad and tests.
func ServeLocal(svc *Service) (baseURL string, shutdown func(), err error) {
	return loadgen.Serve(svc)
}

// Sharded serving tier (see internal/cluster): a consistent-hash router
// over N in-process Service replicas sharing one store, with an
// edge-cache tier absorbing Zipf-popular segments before any shard.
type (
	// Cluster is the routed serving tier. Its Handler exposes the same
	// HTTP surface as a single Service; KillShard/RestartShard change the
	// topology live.
	Cluster = cluster.Cluster
	// ClusterOptions configures shard count, ring virtual nodes, the edge
	// cache budget, and the per-shard serving options.
	ClusterOptions = cluster.Options
	// ClusterStats is a full cluster snapshot: router, edge, per-shard.
	ClusterStats = cluster.Stats
	// EdgeStats is the edge cache's point-in-time view.
	EdgeStats = cluster.EdgeStats
)

// NewCluster builds a routed serving tier over a fresh store (store nil)
// or an existing one.
func NewCluster(st *Store, opts ClusterOptions) (*Cluster, error) { return cluster.New(st, opts) }

// DefaultClusterOptions returns a 2-shard cluster with a 32 MiB edge
// cache and default per-shard serving options.
func DefaultClusterOptions() ClusterOptions { return cluster.DefaultOptions() }

// ServeHandler is ServeLocal for any handler — pass a Cluster's Handler
// to load-test the routed tier in-process.
func ServeHandler(h http.Handler) (baseURL string, shutdown func(), err error) {
	return loadgen.ServeHandler(h)
}

// Telemetry: the shared observability core (see internal/telemetry).
type (
	// Tracer records per-frame pipeline-stage timings; assign one to
	// Player.Trace to trace playback (nil = tracing off, near-zero cost).
	Tracer = telemetry.Tracer
	// StageSummary is one pipeline stage's aggregate timing report.
	StageSummary = telemetry.StageSummary
	// MetricsRegistry is a named-metric registry (counters, gauges,
	// histograms) with Prometheus text exposition.
	MetricsRegistry = telemetry.Registry
)

// NewTracer returns a pipeline tracer keeping the last `recent` per-frame
// traces (<= 0 uses the default ring size).
func NewTracer(recent int) *Tracer { return telemetry.NewTracer(recent) }

// Production-side and delivery extensions.
type (
	// Rig is a multi-camera capture assembly (Fig. 1 left half).
	Rig = capture.Rig
	// Ladder is an adaptive-bitrate quality ladder.
	Ladder = abr.Ladder
)

// SixCameraRig returns the canonical cube capture rig.
func SixCameraRig(sensorRes int) Rig { return capture.SixCameraRig(sensorRes) }

// DefaultLadder returns the three-rung ABR ladder.
func DefaultLadder() Ladder { return abr.DefaultLadder() }

// Pose-quantized mapping-LUT render path (see internal/ptlut): memoizes the
// per-pixel mapping of a (pose, projection, viewport, input-dims) tuple in a
// bytes-budgeted LRU so repeated poses skip the mapping stage entirely.
type (
	// PTConfig is the reference renderer's configuration (projection,
	// filter, viewport).
	PTConfig = pt.Config
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

// Conformance: the differential + metamorphic testing oracle that pins the
// float reference, the fixed-point PTE datapath, and the GPU model against
// each other (see internal/conformance and cmd/evrconform).
type (
	// ConformanceCase is one (projection, filter, pose) corpus entry.
	ConformanceCase = conformance.Case
	// ConformanceManifest is an executed corpus: golden checksums, measured
	// divergence metrics, and per-class error budgets.
	ConformanceManifest = conformance.Manifest
)

// ConformanceCorpus returns the full deterministic conformance case list.
func ConformanceCorpus() []ConformanceCase { return conformance.Corpus() }

// ConformanceFastCorpus returns the quick-gate subset of the corpus.
func ConformanceFastCorpus() []ConformanceCase { return conformance.FastCorpus() }

// RunConformance sweeps the cases through all three render implementations,
// enforcing byte-identity invariants and measuring fixed-point divergence.
func RunConformance(cases []ConformanceCase) (*ConformanceManifest, error) {
	return conformance.Generate(cases)
}

// Live ingest and chaos-driven serving (see internal/server/live.go,
// internal/chaos, and DESIGN.md §15): segments are produced on a clock
// schedule while serving, ahead-of-edge requests get 425 + Retry-After,
// and deterministic seeded fault schedules gate survival.
type (
	// LiveStream ingests a video on a publish schedule with bounded
	// pipeline backpressure; hand it to Service.ServeLive or
	// Cluster.ServeLive before Start.
	LiveStream = server.LiveStream
	// LiveOptions configures live ingest: segment interval, pipeline
	// queue depth, and the clock (nil = wall clock).
	LiveOptions = server.LiveOptions
	// LiveClock is the schedule clock interface.
	LiveClock = server.Clock
	// ClassSpec describes one class of a load run's population (users,
	// video, delivery mode, PTE bitwidths, cache size, link model).
	ClassSpec = loadgen.ClassSpec
	// ClassStats is one class's aggregate report: hit rates, stalls,
	// energy, and time-behind-live freshness percentiles.
	ClassStats = loadgen.ClassStats
)

// Spherically-weighted quality metrics and the SPORT optimizer (DESIGN.md
// §16): solid-angle-aware scoring (S-PSNR, WS-PSNR), per-latitude-band codec
// rate control, and latitude-region datapath truncation plans, plus the
// sweep that searches them jointly against the flat pipeline.
type (
	// Frame is the RGB24 raster every render and codec path shares.
	Frame = frame.Frame
	// Projection identifies a panorama layout (ERP, CMP, EAC).
	Projection = projection.Method
	// WeightTable holds per-pixel solid-angle weights for one raster
	// geometry, with weighted metrics and latitude-band error profiles.
	WeightTable = quality.WeightTable
	// FixedFormat is a PTE fixed-point format ([total bits, integer bits]).
	FixedFormat = fixed.Format
	// SphericalRateController runs one codec rate controller per latitude
	// band, steering bytes toward the latitudes viewers actually see.
	SphericalRateController = codec.SphericalRateController
	// BandAllocation is one latitude band of a spherical byte split.
	BandAllocation = codec.BandAllocation
	// TruncationPlan maps |latitude| regions to datapath formats.
	TruncationPlan = pte.TruncationPlan
	// TruncationRegion is one region of a TruncationPlan.
	TruncationRegion = pte.TruncationRegion
	// SPORTConfig parameterizes the SPORT sweep.
	SPORTConfig = experiments.SPORTConfig
	// SPORTResult is the sweep outcome: flat vs best SPORT pipeline.
	SPORTResult = experiments.SPORTResult
)

// Projection constants for the quality metrics and weight tables.
const (
	ERP = projection.ERP
	CMP = projection.CMP
	EAC = projection.EAC
)

// Q2810 is the paper's PTE design point, [28, 10].
var Q2810 = fixed.Q2810

// NewFrame allocates a w×h RGB frame.
func NewFrame(w, h int) *Frame { return frame.New(w, h) }

// SPSNR scores two equally-sized panoramas by sampling both at a uniform
// sphere point set (the S-PSNR metric). Identical frames return +Inf.
func SPSNR(m Projection, a, b *Frame) (float64, error) { return quality.SPSNR(m, a, b) }

// WSPSNR scores two equally-sized panoramas with raster-cell solid-angle
// weighting (the WS-PSNR metric).
func WSPSNR(m Projection, a, b *Frame) (float64, error) { return quality.WSPSNR(m, a, b) }

// SphericalWeights returns the cached solid-angle weight table of a w×h
// panorama raster under the projection (read-only).
func SphericalWeights(m Projection, w, h int) (*WeightTable, error) {
	return quality.SphericalWeights(m, w, h)
}

// NewSphericalRateController builds a per-latitude-band rate controller for
// h-row frames splitting targetBytes across bands (area-weighted when
// weighted is true; weighted=false reproduces the flat controller per band).
func NewSphericalRateController(h, bands, targetBytes, initialQ int, weighted bool) (*SphericalRateController, error) {
	return codec.NewSphericalRateController(h, bands, targetBytes, initialQ, weighted)
}

// FlatTruncationPlan returns the single-region plan running the whole
// datapath in f — the flat pipeline every SPORT plan is gated against.
func FlatTruncationPlan(f FixedFormat) TruncationPlan { return pte.FlatPlan(f) }

// RunSPORT executes the spherically-weighted rate-control + truncation
// sweep; the result is deterministic for a given configuration.
func RunSPORT(cfg SPORTConfig) (SPORTResult, error) { return experiments.SPORT(cfg) }

// SPORTExperimentTable renders a sweep result as an experiment table.
func SPORTExperimentTable(r SPORTResult) ExperimentTable { return experiments.SPORTTable(r) }

// ExperimentTable is one regenerated paper table/figure.
type ExperimentTable = experiments.Table

// RunExperiments regenerates every paper table and figure at the given
// user-population size (the full corpus is DatasetUsers).
func RunExperiments(users int) []ExperimentTable { return experiments.All(users) }

// RunAblations runs the beyond-paper ablation studies and comparisons.
func RunAblations(users int) []ExperimentTable { return experiments.Ablations(users) }
