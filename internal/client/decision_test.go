package client

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"evr/internal/energy"
	"evr/internal/geom"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/sas"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
	"evr/internal/telemetry"
)

// TestDecisionSteps pins the decision step on its own: the nearest FOV
// video is chosen however far the gaze strays, a segment with none to play
// plays the original, the first miss ends the FOV video with a catch-up of the frames
// before it, and every later frame is PT whatever the checker says.
func TestDecisionSteps(t *testing.T) {
	d := decision{tolerance: geom.Radians(20)}
	first := []geom.Orientation{{Yaw: 0}, {Yaw: 2}}
	if got := d.segment(first, geom.Orientation{Yaw: 2 + math.Pi/2}); got != 1 {
		t.Errorf("choice %d for a gaze 90° past the nearest video, want 1: no cap", got)
	}
	if got := d.segment(nil, geom.Orientation{}); got != -1 || d.onFOV {
		t.Errorf("choice %d (on FOV %v) with no FOV video to play, want the original", got, d.onFOV)
	}
	d.segment(first, geom.Orientation{})
	pose := geom.Orientation{}
	for f, tc := range []struct {
		gazeDeg float64
		out     outcome
		hit     bool
		catchUp int
	}{
		{10, hitFrame, true, 0},
		{19, hitFrame, true, 0},
		{21, firstMiss, false, 2},
		{0, ptFrame, true, 0},
		{30, ptFrame, false, 0},
	} {
		out, hit, catchUp := d.frame(f, pose, geom.Orientation{Yaw: geom.Radians(tc.gazeDeg)})
		if out != tc.out || hit != tc.hit || catchUp != tc.catchUp {
			t.Errorf("frame %d at %v°: (%v, %v, %d), want (%v, %v, %d)", f, tc.gazeDeg, out, hit, catchUp, tc.out, tc.hit, tc.catchUp)
		}
	}
	d.tolerance = math.Inf(1) // ForceAllHits
	d.segment(first, geom.Orientation{})
	if out, _, _ := d.frame(0, pose, geom.Orientation{Yaw: math.Pi}); out != hitFrame {
		t.Errorf("an infinite tolerance gave %v, want a hit", out)
	}
}

// TestSimulateChargesCatchUpOnce: a first miss at frame 0 decodes nothing
// again, so a FOV segment that misses at once costs the same DRAM traffic as
// the original played from its start. The FOV video and its checks cost
// radio, storage and CPU, never memory.
func TestSimulateChargesCatchUpOnce(t *testing.T) {
	v, _ := scene.ByName("RS")
	tr := headtrace.Generate(v, 0)
	far := tr.Samples[0].O
	far.Yaw += math.Pi
	seg := sas.SegmentPlan{Frames: 30, OrigBytes: 1 << 20}
	orig := &sas.Plan{Cfg: sas.DefaultConfig(), Segments: []sas.SegmentPlan{seg}}
	seg.Tracks = []sas.ClusterTrack{{Centers: make([]geom.Orientation, 30)}}
	for f := range seg.Tracks[0].Centers {
		seg.Tracks[0].Centers[f] = far
	}
	seg.FOVBytes = []int64{1 << 19}
	fov := &sas.Plan{Cfg: sas.DefaultConfig(), Segments: []sas.SegmentPlan{seg}}
	cfg := DefaultConfig(SH, OnlineStreaming)
	a, err := Simulate(v, tr, orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(v, tr, fov, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.FramesHit != 0 || b.FOVMisses != 30 || b.FramesPT != 30 {
		t.Fatalf("FOV segment: %d hits, %d misses, %d PT frames; want a miss at frame 0", b.FramesHit, b.FOVMisses, b.FramesPT)
	}
	if got, want := b.Ledger.Joules(energy.Memory), a.Ledger.Joules(energy.Memory); math.Abs(got-want) > 1e-12*want {
		t.Errorf("memory %.9g J after a miss at frame 0, want the original's %.9g J: no catch-up", got, want)
	}
}

// TestPlayMatchesSimulate is the differential test of the playback
// decision: Player.Play, which executes it on real payloads, and Simulate,
// which prices it, must choose the same FOV video for each segment and fall
// back at the same frame. Each video of the evaluation set is ingested once
// at test size and played by a few users with no faults, no latency and the
// segment cache on; the model plays a sas.Plan built from the same manifest
// and FOV metadata, over the same head trace. One more user looks straight
// down, away from every object, so the nearest FOV video is far outside the
// tolerance and is still chosen.
//
// The one decision difference allowed is the model's resync hole: after a
// fallback it plays the next resyncSegments segments from the original,
// where the real prefetcher fetches the FOV video as usual. So each segment
// is compared alone, as a one-segment plan, and the whole-plan model must
// differ from those runs only inside a hole.
//
// Both price a fallback's catch-up once, for the frames before the miss:
// the player's memory ledger must hold exactly that many panoramas beyond
// its displayed frames. Two pricing differences stand and are not compared:
// the model runs the FOV checker on every frame of a FOV segment, after a
// fallback too, where Play stops checking at the fallback; and the model
// prices its own bytes (nominal sizes, the blocking-fetch stall).
func TestPlayMatchesSimulate(t *testing.T) {
	const segments = 4
	for _, v := range scene.EvalSet() {
		t.Run(v.Name, func(t *testing.T) {
			var mu sync.Mutex
			var demanded []server.Ref // payloads the player fetched, in order
			svc := server.NewService(store.New())
			cfg := server.DefaultIngestConfig()
			cfg.FullW, cfg.FullH = 96, 48
			cfg.FOVW, cfg.FOVH = 32, 32
			cfg.MaxSegments = segments
			cfg.Codec.SearchRange = 1
			man, err := svc.IngestVideo(v, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mux := svc.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if ref, err := server.ParseRefPath(r.URL.Path); err == nil && (ref.Kind == server.FOV || ref.Kind == server.Orig) {
					mu.Lock()
					demanded = append(demanded, ref)
					mu.Unlock()
				}
				mux.ServeHTTP(w, r)
			}))
			defer ts.Close()
			plan := planOf(t, man)
			tolerance := sas.Tolerance(plan.Cfg.MarginDeg, plan.Cfg.MarginDeg)

			var traces []headtrace.Trace
			for u := 0; u < 6; u++ {
				traces = append(traces, headtrace.Generate(v, u))
			}
			floor := headtrace.Trace{User: -1, Video: v.Name, FPS: v.FPS, Samples: make([]headtrace.Sample, len(traces[0].Samples))}
			for i := range floor.Samples {
				floor.Samples[i] = headtrace.Sample{T: float64(i) / float64(v.FPS), O: geom.Orientation{Pitch: -math.Pi / 2}}
			}
			traces = append(traces, floor)

			compared, farChoices, fallbacks := 0, 0, 0
			for _, tr := range traces {
				mu.Lock()
				demanded = nil
				mu.Unlock()
				p := NewPlayer(ts.URL)
				p.Fetch.Prefetch = false // the server then sees exactly the demand fetches
				p.Trace = telemetry.NewTracer(0)
				stats, _, err := p.Play(v.Name, hmd.NewIMU(tr), segments)
				if err != nil {
					t.Fatal(err)
				}
				played := playerSegments(t, p.Trace.Recent(0), demanded, plan)
				catchUps := 0
				for _, d := range played {
					catchUps += max(d.fallback, 0)
				}
				if got := playerCatchUps(stats, man.FOVXDeg, v.FPS); math.Abs(got-float64(catchUps)) > 1e-6 {
					t.Errorf("user %d: player priced %.6f catch-up frames, its fallbacks make %d", tr.User, got, catchUps)
				}

				whole, err := Simulate(v, tr, plan, DefaultConfig(SH, OnlineStreaming))
				if err != nil {
					t.Fatal(err)
				}
				hole := 0
				for si, seg := range plan.Segments {
					alone := *plan
					alone.Segments = plan.Segments[si : si+1]
					res, err := Simulate(v, tr, &alone, DefaultConfig(SH, OnlineStreaming))
					if err != nil {
						t.Fatal(err)
					}
					model := modelSegment(t, res, len(seg.Tracks))
					if ti := model.choice; ti >= 0 {
						model.choice = man.Segments[si].Clusters[ti].ID
						if seg.Tracks[ti].Centers[0].AngularDistance(tr.Samples[seg.Start].O) > 4*tolerance {
							farChoices++
						}
					}
					compared++
					if got := played[si]; got != model {
						t.Errorf("user %d segment %d: player chose %d and fell back at %d, model chose %d and fell back at %d (-1: none)",
							tr.User, si, got.choice, got.fallback, model.choice, model.fallback)
					}
					if model.fallback >= 0 {
						fallbacks++
						// The model's checker runs on after the fallback.
						if res.FOVChecks != seg.Frames {
							t.Errorf("user %d segment %d: model checked %d of %d frames", tr.User, si, res.FOVChecks, seg.Frames)
						}
					}

					// The whole-plan run agrees segment by segment, except
					// that a resync hole plays the original.
					want := res.SegmentBytes[0]
					if hole > 0 {
						want, hole = seg.OrigBytes, hole-1
					}
					if got := whole.SegmentBytes[si]; got != want {
						t.Errorf("user %d segment %d: whole-plan model streamed %d, want %d", tr.User, si, got, want)
					}
					if got := whole.SegmentBytes[si]; got > 1 && got%2 == 1 {
						hole = resyncSegments
					}
				}
			}
			t.Logf("%d segments compared: %d fell back, %d chose a FOV video over 4× the tolerance away", compared, fallbacks, farChoices)
			if farChoices == 0 || fallbacks == 0 {
				t.Errorf("%d far choices and %d fallbacks: the users must exercise both", farChoices, fallbacks)
			}
		})
	}
}

// playerCatchUps reads the catch-up a HAR session priced off its memory
// ledger: what remains after its displayed frames' DRAM traffic (base load,
// each hit's FOV frame and scanout, each PTE frame's panorama, scanout and PT
// traffic), in panoramas decoded.
func playerCatchUps(s PlaybackStats, fovXDeg float64, fps int) float64 {
	dram := device.DRAMJPerByte
	frames := float64(s.Frames)*device.DRAMStaticW/float64(fps) +
		float64(s.Hits)*dram*float64(fovFrameBytes(fovXDeg)+viewportBytes) +
		float64(s.PTEFrames)*dram*float64(panoramaBytes+viewportBytes) + s.PTMemoryJ
	return (s.Ledger.Joules(energy.Memory) - frames) / (dram * panoramaBytes)
}

// segmentDecision is one segment's decision as an executor made it: the
// FOV video's cluster ID (-1: the original) and the frame of the first miss
// (-1: none).
type segmentDecision struct{ choice, fallback int }

// planOf builds the model's plan from a manifest and its FOV metadata. Its
// byte sizes label the decision: a segment streams 1 byte for the original,
// 2(i+1) for FOV video i, and 1 more for a fallback.
func planOf(t *testing.T, man *server.Manifest) *sas.Plan {
	t.Helper()
	plan := &sas.Plan{Video: man.Video, FPS: man.FPS, Cfg: sas.DefaultConfig()}
	plan.Cfg.MarginDeg = min(man.FOVXDeg, man.FOVYDeg) - headset.FOVXDeg
	start := 0
	for _, si := range man.Segments {
		seg := sas.SegmentPlan{Index: si.Index, Start: start, Frames: si.Frames, OrigBytes: 1}
		for i, cl := range si.Clusters {
			if len(cl.Meta) != si.Frames {
				t.Fatalf("segment %d cluster %d: %d poses for %d frames", si.Index, cl.ID, len(cl.Meta), si.Frames)
			}
			track := sas.ClusterTrack{Cluster: cl.ID}
			for _, m := range cl.Meta {
				track.Centers = append(track.Centers, geom.Orientation{Yaw: m.Yaw, Pitch: m.Pitch})
			}
			seg.Tracks = append(seg.Tracks, track)
			seg.FOVBytes = append(seg.FOVBytes, int64(2*(i+1)))
		}
		plan.Segments = append(plan.Segments, seg)
		start += si.Frames
	}
	return plan
}

// modelSegment reads a one-segment Simulate result through planOf's labels.
func modelSegment(t *testing.T, res Result, tracks int) segmentDecision {
	t.Helper()
	b := res.SegmentBytes[0]
	d := segmentDecision{-1, -1}
	if b > 1 {
		d.choice = int(b/2) - 1
		if b%2 == 1 {
			d.fallback = res.FramesHit
		}
	}
	if d.choice >= tracks {
		t.Fatalf("model streamed %d bytes: no such label for %d tracks", b, tracks)
	}
	return d
}

// playerSegments reads each segment's decision off a session: the choice
// from the FOV payloads it demanded, the fallback from its per-frame spans,
// where a FOV segment shows hits up to its first miss and none after.
func playerSegments(t *testing.T, frames []telemetry.FrameTrace, demanded []server.Ref, plan *sas.Plan) []segmentDecision {
	t.Helper()
	out := make([]segmentDecision, len(plan.Segments))
	for i := range out {
		out[i] = segmentDecision{-1, -1}
	}
	for _, ref := range demanded {
		if ref.Kind == server.FOV {
			out[ref.Seg].choice = ref.A
		}
	}
	for _, fr := range frames {
		d := &out[fr.Segment]
		switch {
		case fr.Hit && d.fallback >= 0:
			t.Fatalf("segment %d frame %d: a hit after the fallback at frame %d", fr.Segment, fr.Frame, d.fallback)
		case fr.Hit && d.choice < 0:
			t.Fatalf("segment %d frame %d: a hit without a FOV video", fr.Segment, fr.Frame)
		case !fr.Hit && d.choice >= 0 && d.fallback < 0:
			d.fallback = fr.Frame - plan.Segments[fr.Segment].Start
		}
	}
	return out
}
