package main

import (
	"evr/internal/client"
	"evr/internal/delivery"
	"evr/internal/server"
)

// sizes fixes how much work a workload does. The counts are frozen here
// (and described in README.md); the tests swap in toy sizes.
type sizes struct {
	// Playback: an ERP panorama PanoW×PanoW/2 of video RS, Segments
	// segments per session, Player.ViewportScale VPScale, and the fixed
	// viewer population Users of the 59-user headtrace set.
	PanoW    int
	VPScale  int
	Segments int
	Users    []int
	// serve_zipf: the catalog videos ingested tiled at ServeW×ServeW/2 ×
	// ServeSegs segments, a republish of the most popular video every
	// PublishEvery requests of connection 0, Warm untimed requests per
	// connection, rates taken per Batch requests, and TracedRequests per
	// connection in the traced run.
	ServeVideos    []string
	ServeW         int
	ServeSegs      int
	PublishEvery   int
	Warm           int
	Batch          int
	TracedRequests int
	// SetupRepeats is how many times a run sets up (setup_s is the median).
	SetupRepeats int
	// PSNRFloor is each workload's correctness floor on view_psnr_db: the
	// value at these sizes minus 1 dB, so a change that drops tile rungs or
	// precision fails the run instead of looking fast.
	PSNRFloor map[string]float64
}

// fullSizes keeps the paper's viewport/panorama pixel ratio of 0.5
// (2560×1440 panel over 3840×1920): 320×160 panorama, 213×120 viewport.
var fullSizes = sizes{
	PanoW: 320, VPScale: 12, Segments: 2,
	// Users 4–11: four steady trackers and four explorers, so vod_sas sees
	// a FOV miss share near the 59-user mean. The population is fixed
	// because one explorer costs as much as nine trackers; a seed-drawn
	// set would move frames_per_s by more than any bound.
	Users:       []int{4, 5, 7, 9},
	ServeVideos: []string{"RS", "Paris", "Timelapse"},
	ServeW:      128, ServeSegs: 2,
	PublishEvery: 5000, Warm: 2000, Batch: 10000, TracedRequests: 10000,
	SetupRepeats: 3,
	PSNRFloor:    map[string]float64{"vod_sas": 18.40, "live_orig": 35.35, "tiled_view": 29.39, "serve_zipf": 30.42},
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// ingest and player configure the playback workloads.
	ingest func(*server.IngestConfig)
	player func(*client.Player)

	measure func(*workload, options) (result, map[string]any, error)
	traced  func(*workload, options) (result, map[string]any, error)
}

// workloads is the table BENCHMARK.json names; README.md says why each
// exists and which layers it exercises and bypasses.
var workloads = []*workload{
	{
		// The paper's headline path and the shipped default.
		name:    "vod_sas",
		ingest:  func(c *server.IngestConfig) {},
		player:  func(p *client.Player) {},
		measure: measurePlayback, traced: tracedPlayback,
	},
	{
		// The paper's baseline device: no FOV videos, float PT per frame.
		name:    "live_orig",
		ingest:  func(c *server.IngestConfig) { c.LiveMode = true },
		player:  func(p *client.Player) { p.UseHAR, p.UseLUT = false, false },
		measure: measurePlayback, traced: tracedPlayback,
	},
	{
		// The only workload where delivery works; renderer equal to
		// live_orig so the difference between the rows is the tiling cost.
		// LiveMode skips the FOV videos ModeTiled never requests.
		name:   "tiled_view",
		ingest: func(c *server.IngestConfig) { c.Tiled, c.LiveMode = true, true },
		player: func(p *client.Player) {
			p.UseHAR, p.UseLUT = false, false
			p.Tiled = client.TiledConfig{Enabled: true, Force: delivery.ModeTiled}
		},
		measure: measurePlayback, traced: tracedPlayback,
	},
	{
		// No decode, no render: raw GETs against the routed serving tier.
		name:    "serve_zipf",
		measure: measureServe, traced: tracedServe,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ingestConfig returns the ingest settings for a w-wide ERP panorama: FOV
// frames sized to the panorama's own angular resolution over the 150° the
// FOV videos cover, everything else the repo's defaults.
func ingestConfig(w, segments int) server.IngestConfig {
	cfg := server.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = w, w/2
	fov := int(float64(w)*cfg.FOVXDeg/360) / 8 * 8
	cfg.FOVW, cfg.FOVH = fov, fov
	cfg.MaxSegments = segments
	return cfg
}
