package server

import (
	"math"
	"testing"

	"evr/internal/geom"
	"evr/internal/scene"
	"evr/internal/store"
)

// TestEmbeddedSemanticsSkipsDetector verifies the §9 capture co-design: an
// ingest with capture-embedded annotations runs zero detector invocations
// while the conventional pipeline runs one per frame.
func TestEmbeddedSemanticsSkipsDetector(t *testing.T) {
	v, _ := scene.ByName("RS")
	cfg := smallIngest()

	conventional, err := Ingest(v, cfg, store.New())
	if err != nil {
		t.Fatal(err)
	}
	if got := conventional.Report.DetectorInvocations; got != 60 {
		t.Errorf("conventional ingest ran %d detector invocations, want 60 (one per frame)", got)
	}
	if conventional.Report.EmbeddedSemantics {
		t.Error("conventional ingest flagged as embedded")
	}

	cfg.EmbeddedSemantics = true
	embedded, err := Ingest(v, cfg, store.New())
	if err != nil {
		t.Fatal(err)
	}
	if got := embedded.Report.DetectorInvocations; got != 0 {
		t.Errorf("embedded ingest ran %d detector invocations, want 0", got)
	}
	if !embedded.Report.EmbeddedSemantics {
		t.Error("embedded ingest not flagged")
	}
	if embedded.Report.PreRenderedFrames == 0 {
		t.Error("embedded ingest pre-rendered nothing")
	}
}

// TestEmbeddedTracksMatchDetectedTracks verifies that the cheap embedded
// path produces trajectories close to what the full vision pipeline finds:
// for every embedded cluster there is a detected cluster within a small
// angle at the key frame.
func TestEmbeddedTracksMatchDetectedTracks(t *testing.T) {
	v, _ := scene.ByName("RS")
	cfg := smallIngest()
	cfg.FullW, cfg.FullH = 192, 96 // higher res for detector accuracy
	cfg.MaxSegments = 1

	detected, err := Ingest(v, cfg, store.New())
	if err != nil {
		t.Fatal(err)
	}
	cfg.EmbeddedSemantics = true
	embedded, err := Ingest(v, cfg, store.New())
	if err != nil {
		t.Fatal(err)
	}
	dClusters := detected.Segments[0].Clusters
	eClusters := embedded.Segments[0].Clusters
	if len(eClusters) == 0 || len(dClusters) == 0 {
		t.Fatal("missing clusters")
	}
	for _, ec := range eClusters {
		eo := geom.Orientation{Yaw: ec.Pose.Yaw, Pitch: ec.Pose.Pitch}
		best := math.Inf(1)
		for _, dc := range dClusters {
			do := geom.Orientation{Yaw: dc.Pose.Yaw, Pitch: dc.Pose.Pitch}
			if ang := eo.AngularDistance(do); ang < best {
				best = ang
			}
		}
		if best > 0.25 {
			t.Errorf("embedded cluster %d is %v rad from the nearest detected cluster", ec.ID, best)
		}
	}
}

// TestEmbeddedIngestServesDecodableContent ensures the co-design path
// produces the same store layout and valid bitstreams.
func TestEmbeddedIngestServesDecodableContent(t *testing.T) {
	v, _ := scene.ByName("Timelapse")
	cfg := smallIngest()
	cfg.EmbeddedSemantics = true
	st := store.New()
	man, err := Ingest(v, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	cl := man.Segments[0].Clusters[0]
	data, meta, ok := st.Get(Ref{Video: "Timelapse", Kind: FOV, Seg: 0, A: cl.ID}.StoreKey())
	if !ok {
		t.Fatal("FOV video missing")
	}
	if _, err := UnmarshalBitstream(data); err != nil {
		t.Fatalf("embedded FOV bitstream corrupt: %v", err)
	}
	parsed, err := UnmarshalFrameMeta(meta, 30)
	if err != nil || len(parsed) != 30 {
		t.Fatalf("embedded metadata broken: %v (%d entries)", err, len(parsed))
	}
}

// TestLiveModeSkipsAnalysis verifies the live-streaming pipeline (§8.3):
// no detector runs, no FOV videos exist, originals still stream.
func TestLiveModeSkipsAnalysis(t *testing.T) {
	v, _ := scene.ByName("RS")
	cfg := smallIngest()
	cfg.LiveMode = true
	st := store.New()
	man, err := Ingest(v, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if man.Report.DetectorInvocations != 0 || man.Report.PreRenderedFrames != 0 {
		t.Errorf("live ingest did analysis work: %+v", man.Report)
	}
	for _, seg := range man.Segments {
		if len(seg.Clusters) != 0 {
			t.Errorf("live segment %d has FOV videos", seg.Index)
		}
		if !stored(st, Ref{Video: "RS", Kind: Orig, Seg: seg.Index}.StoreKey()) {
			t.Errorf("live segment %d missing original", seg.Index)
		}
	}
}
