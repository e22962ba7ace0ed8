package main

import (
	"io"
	"testing"

	"evr/internal/chaos"
	"evr/internal/delivery"
)

// TestChaosOrigClassPlaysOrig: a scenario class pinned to orig must get
// its video ingested with tile streams and play every segment as the full
// original — never the classic FOV player's hits.
func TestChaosOrigClassPlaysOrig(t *testing.T) {
	const users, segments = 2, 2
	sc := &chaos.Scenario{
		Name: "orig-class", Seed: 1, Passes: 1, Segments: segments, Width: 96, ViewportScale: 32,
		Fleet: []chaos.Class{{Name: "pinned", Users: users, Video: "Paris", Delivery: delivery.ModeOrig.String()}},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	run, err := runChaosOnce(sc, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !run.gate.Passed {
		t.Fatalf("gate failed: %v", run.gate.Problems)
	}
	ps := run.report.PerPass[0]
	if ps.Hits != 0 {
		t.Errorf("orig class had %d FOV hits of %d frames, want 0", ps.Hits, ps.Frames)
	}
	if ps.ModeOrigSegments != users*segments || ps.ModeFOVSegments+ps.ModeTiledSegments != 0 {
		t.Errorf("segments fov/tiled/orig = %d/%d/%d, want 0/0/%d",
			ps.ModeFOVSegments, ps.ModeTiledSegments, ps.ModeOrigSegments, users*segments)
	}

	// The live video is ingested orig-only: no delivery word may ask for
	// tile streams on it.
	for m := delivery.ModeAuto; m <= delivery.ModeOrig; m++ {
		live := *sc
		live.Live = &chaos.LiveSpec{Video: "Paris"}
		live.Fleet = []chaos.Class{sc.Fleet[0]}
		live.Fleet[0].Delivery = m.String()
		if err := live.Validate(); err == nil {
			t.Errorf("live class with delivery %v accepted", m)
		}
	}
}
