package sas

import (
	"math"
	"testing"

	"evr/internal/geom"
	"evr/internal/headtrace"
	"evr/internal/scene"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{SegmentFrames: 0, MarginDeg: 30, Utilization: 1, FOVPixelRatio: 0.7},
		{SegmentFrames: 30, MarginDeg: 0, Utilization: 1, FOVPixelRatio: 0.7},
		{SegmentFrames: 30, MarginDeg: 30, Utilization: 0, FOVPixelRatio: 0.7},
		{SegmentFrames: 30, MarginDeg: 30, Utilization: 1.5, FOVPixelRatio: 0.7},
		{SegmentFrames: 30, MarginDeg: 30, Utilization: 1, FOVPixelRatio: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBuildPlanStructure(t *testing.T) {
	v, _ := scene.ByName("RS")
	p, err := BuildPlan(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantSegs := v.Frames() / 30
	if len(p.Segments) != wantSegs {
		t.Fatalf("plan has %d segments, want %d", len(p.Segments), wantSegs)
	}
	for i, s := range p.Segments {
		if s.Index != i || s.Start != i*30 || s.Frames != 30 {
			t.Fatalf("segment %d malformed: %+v", i, s)
		}
		if len(s.Tracks) == 0 || len(s.Tracks) != len(s.FOVBytes) {
			t.Fatalf("segment %d tracks/bytes mismatch", i)
		}
		if s.OrigBytes <= 0 {
			t.Fatalf("segment %d has no original bytes", i)
		}
		for _, tr := range s.Tracks {
			if len(tr.Centers) != s.Frames {
				t.Fatalf("track has %d centers, want %d", len(tr.Centers), s.Frames)
			}
		}
	}
}

func TestTracksFollowObjects(t *testing.T) {
	// A cluster track must stay near at least one ground-truth object.
	v, _ := scene.ByName("Timelapse")
	p, _ := BuildPlan(v, DefaultConfig())
	for _, s := range p.Segments[:5] {
		for fi := 0; fi < s.Frames; fi += 7 {
			tt := float64(s.Start+fi) / float64(v.FPS)
			objs := v.ObjectsAt(tt)
			for _, tr := range s.Tracks {
				fwd := tr.Centers[fi].Forward()
				best := math.Inf(1)
				for _, o := range objs {
					if ang := fwd.Angle(o.Dir); ang < best {
						best = ang
					}
				}
				if best > 0.6 {
					t.Fatalf("segment %d frame %d: track %v rad from nearest object", s.Index, fi, best)
				}
			}
		}
	}
}

func TestUtilizationMonotoneStorage(t *testing.T) {
	// Fig. 14: lower utilization, lower storage overhead.
	v, _ := scene.ByName("Paris")
	var prev float64
	for _, u := range []float64{0.25, 0.5, 0.75, 1.0} {
		cfg := DefaultConfig()
		cfg.Utilization = u
		p, err := BuildPlan(v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ov := p.StorageOverhead()
		if ov < prev-1e-9 {
			t.Fatalf("storage overhead decreased: %v at u=%v (prev %v)", ov, u, prev)
		}
		prev = ov
	}
}

func TestStorageOverheadPlausible(t *testing.T) {
	// Paper (§8.2): full-utilization storage overhead averages ~4.2×,
	// with per-video range 2.0–7.6×. Require ours to land in a sane band.
	var sum float64
	n := 0
	for _, v := range scene.EvalSet() {
		p, err := BuildPlan(v, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ov := p.StorageOverhead()
		if ov < 0.5 || ov > 10 {
			t.Errorf("%s: storage overhead %v out of [0.5, 10]", v.Name, ov)
		}
		sum += ov
		n++
	}
	if avg := sum / float64(n); avg < 1.5 || avg > 7 {
		t.Errorf("average storage overhead %v, want a few × (paper: 4.2)", avg)
	}
}

func TestChooseTrackPicksNearest(t *testing.T) {
	seg := &SegmentPlan{
		Tracks: []ClusterTrack{
			{Cluster: 0, Centers: []geom.Orientation{{Yaw: 0}}},
			{Cluster: 1, Centers: []geom.Orientation{{Yaw: 2.0}}},
		},
	}
	if got := ChooseTrack(seg, geom.Orientation{Yaw: 1.8}); got != 1 {
		t.Errorf("chose track %d, want 1", got)
	}
	if got := ChooseTrack(seg, geom.Orientation{Yaw: -0.1}); got != 0 {
		t.Errorf("chose track %d, want 0", got)
	}
	if got := ChooseTrack(&SegmentPlan{}, geom.Orientation{}); got != -1 {
		t.Errorf("empty segment should give -1, got %d", got)
	}
}

func TestHitChecker(t *testing.T) {
	cfg := DefaultConfig() // tolerance = 15°
	track := &ClusterTrack{Centers: []geom.Orientation{{Yaw: 0}, {Yaw: 0.1}}}
	if !cfg.Hit(track, 0, geom.Orientation{Yaw: geom.Radians(10)}) {
		t.Error("10° deviation should hit with a 15° tolerance")
	}
	if cfg.Hit(track, 0, geom.Orientation{Yaw: geom.Radians(20)}) {
		t.Error("20° deviation should miss")
	}
	if cfg.Hit(track, 5, geom.Orientation{}) {
		t.Error("out-of-range frame should miss")
	}
	if cfg.Hit(nil, 0, geom.Orientation{}) {
		t.Error("nil track should miss")
	}
}

func TestHitRatesMatchPaperBand(t *testing.T) {
	// §8.2: average per-frame FOV-miss rate ≈ 7.7%, ranging from ~5%
	// (Timelapse) to ~12% (RS). Check the synthetic pipeline lands in a
	// plausible band and preserves the ordering.
	missRate := func(name string, users int) float64 {
		v, _ := scene.ByName(name)
		p, _ := BuildPlan(v, DefaultConfig())
		cfg := p.Cfg
		misses, total := 0, 0
		for u := 0; u < users; u++ {
			tr := headtrace.Generate(v, u)
			for _, s := range p.Segments {
				if s.Start >= len(tr.Samples) {
					break
				}
				ti := ChooseTrack(&s, tr.Samples[s.Start].O)
				if ti < 0 {
					continue
				}
				for f := 0; f < s.Frames && s.Start+f < len(tr.Samples); f++ {
					total++
					if !cfg.Hit(&s.Tracks[ti], f, tr.Samples[s.Start+f].O) {
						misses++
					}
				}
			}
		}
		return float64(misses) / float64(total)
	}
	tl := missRate("Timelapse", 6)
	rs := missRate("RS", 6)
	if tl >= rs {
		t.Errorf("Timelapse miss rate %v should be below RS %v", tl, rs)
	}
	if tl < 0.005 || tl > 0.25 {
		t.Errorf("Timelapse miss rate %v outside plausible band", tl)
	}
	if rs < 0.02 || rs > 0.40 {
		t.Errorf("RS miss rate %v outside plausible band", rs)
	}
}

func TestBuildPlanRejectsBadConfig(t *testing.T) {
	v, _ := scene.ByName("RS")
	bad := DefaultConfig()
	bad.SegmentFrames = 0
	if _, err := BuildPlan(v, bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestEmptySceneplan(t *testing.T) {
	empty := scene.VideoSpec{Name: "none", Duration: 2, FPS: 30, Complexity: 0.5}
	p, err := BuildPlan(empty, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Segments) != 2 {
		t.Fatalf("segments = %d", len(p.Segments))
	}
	for _, s := range p.Segments {
		if len(s.Tracks) != 0 {
			t.Error("objectless video should have no FOV videos")
		}
	}
	if p.StorageOverhead() != 0 {
		t.Error("objectless video should have zero overhead")
	}
}
