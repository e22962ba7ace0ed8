package client

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"evr/internal/codec"
	"evr/internal/frame"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
)

// corruptingHandler wraps a service handler and mangles responses whose
// paths match a predicate — the failure-injection harness.
func corruptingHandler(inner http.Handler, match func(path string) bool, mangle func(body []byte) []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !match(r.URL.Path) {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		w.WriteHeader(rec.Code)
		w.Write(mangle(rec.Body.Bytes()))
	})
}

// truncateAndFlip halves a payload and flips bits through what is left:
// the framing breaks, so the payload fails when it is fetched.
func truncateAndFlip(body []byte) []byte {
	if len(body) > 16 {
		body = body[:len(body)/2]
		for i := 8; i < len(body); i += 7 {
			body[i] ^= 0xFF
		}
	}
	return body
}

// zeroCoefficients returns a mangler that keeps a payload's envelope and
// segment header intact but zeroes the first eight bytes of frame k's body:
// an exp-Golomb code of 33+ leading zeros, which no decoder accepts. The
// payload passes every fetch-time check and fails when frame k is decoded.
// unwrap parses the payload's envelope; frame bodies alias the body, so
// zeroing them edits the payload in place.
func zeroCoefficients(k int, unwrap func([]byte) (*codec.Bitstream, error)) func([]byte) []byte {
	return func(body []byte) []byte {
		bits, err := unwrap(body)
		if err != nil || k >= len(bits.Frames) {
			panic(fmt.Sprintf("cannot corrupt frame %d of the payload: %v", k, err))
		}
		data := bits.Frames[k]
		clear(data[:min(len(data), 8)])
		return body
	}
}

func corruptTestServer(t *testing.T, match func(string) bool) (*httptest.Server, scene.VideoSpec) {
	return mangledTestServer(t, false, match, truncateAndFlip)
}

// mangledTestServer serves two segments of RS at 96×48 — live ingest (no FOV
// videos) when live is set — with matching responses mangled.
func mangledTestServer(t *testing.T, live bool, match func(string) bool, mangle func([]byte) []byte) (*httptest.Server, scene.VideoSpec) {
	t.Helper()
	v, _ := scene.ByName("RS")
	cfg := server.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 96, 48
	cfg.FOVW, cfg.FOVH = 32, 32
	cfg.MaxSegments = 2
	cfg.Codec.SearchRange = 1
	cfg.LiveMode = live
	svc := server.NewService(store.New())
	if _, err := svc.IngestVideo(v, cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(corruptingHandler(svc.Handler(), match, mangle))
	t.Cleanup(ts.Close)
	return ts, v
}

func TestNonResilientPlayerAbortsOnCorruptFOV(t *testing.T) {
	ts, v := corruptTestServer(t, func(p string) bool {
		return strings.Contains(p, "/fov/") && !strings.Contains(p, "fovmeta")
	})
	p := NewPlayer(ts.URL)
	_, _, err := p.Play("RS", hmd.NewIMU(headtrace.Generate(v, 0)), 2)
	if err == nil {
		t.Fatal("corrupt FOV payload did not abort a non-resilient player")
	}
}

func TestResilientPlayerSurvivesCorruptFOV(t *testing.T) {
	ts, v := corruptTestServer(t, func(p string) bool {
		return strings.Contains(p, "/fov/") && !strings.Contains(p, "fovmeta")
	})
	p := NewPlayer(ts.URL)
	p.Resilient = true
	stats, frames, err := p.Play("RS", hmd.NewIMU(headtrace.Generate(v, 0)), 2)
	if err != nil {
		t.Fatalf("resilient player failed: %v", err)
	}
	if stats.Frames != 60 || len(frames) != 60 {
		t.Fatalf("played %d frames, want 60", stats.Frames)
	}
	if stats.PayloadErrors == 0 {
		t.Error("no payload errors recorded despite corruption")
	}
	// Degraded to the original stream: everything renders through PT.
	if stats.Hits != 0 {
		t.Errorf("FOV hits %d despite corrupt FOV videos", stats.Hits)
	}
	if stats.PTEFrames != 60 {
		t.Errorf("PTE rendered %d frames, want all 60", stats.PTEFrames)
	}
}

// TestBadFOVMetaIsAPayloadError checks the fetch layer refuses FOV metadata
// the FOV check cannot trust — one frame short, a NaN angle, or the JSON
// form an older ingest stored — as a payload error: a strict player stops
// with it, a resilient one plays the original instead.
func TestBadFOVMetaIsAPayloadError(t *testing.T) {
	for _, c := range []struct {
		name   string
		mangle func([]byte) []byte
		want   string
	}{
		{"one frame short", func(b []byte) []byte { return b[:len(b)-16] }, "464 bytes, want 480"},
		{"NaN yaw", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[3*16:], math.Float64bits(math.NaN()))
			return b
		}, "frame 3 has a non-finite angle"},
		{"JSON form", func(b []byte) []byte {
			meta, err := server.UnmarshalFrameMeta(b, len(b)/16)
			if err != nil {
				t.Fatal(err)
			}
			js, _ := json.Marshal(meta)
			return js
		}, "re-ingest"},
	} {
		ts, v := mangledTestServer(t, false, func(p string) bool { return strings.Contains(p, "/fovmeta/") }, c.mangle)
		p := NewPlayer(ts.URL)
		if _, _, err := p.Play("RS", hmd.NewIMU(headtrace.Generate(v, 0)), 2); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: strict player err = %v, want one containing %q", c.name, err, c.want)
		}
		p = NewPlayer(ts.URL)
		p.Resilient = true
		stats, frames, err := p.Play("RS", hmd.NewIMU(headtrace.Generate(v, 0)), 2)
		if err != nil {
			t.Fatalf("%s: resilient player failed: %v", c.name, err)
		}
		if len(frames) != 60 || stats.Hits != 0 || stats.PayloadErrors == 0 {
			t.Errorf("%s: resilient player displayed %d frames, stats %+v; want 60 misses and payload errors", c.name, len(frames), stats)
		}
	}
}

func TestResilientPlayerFreezesOnTotalLoss(t *testing.T) {
	// Corrupt everything except the manifest: the player must still emit
	// the right number of frames, freezing when nothing decodes.
	ts, v := corruptTestServer(t, func(p string) bool {
		return strings.Contains(p, "/orig/") ||
			(strings.Contains(p, "/fov/") && !strings.Contains(p, "fovmeta"))
	})
	p := NewPlayer(ts.URL)
	p.Resilient = true
	stats, frames, err := p.Play("RS", hmd.NewIMU(headtrace.Generate(v, 0)), 2)
	if err != nil {
		t.Fatalf("resilient player failed: %v", err)
	}
	if len(frames) != 60 {
		t.Fatalf("displayed %d frames, want 60", len(frames))
	}
	if stats.FrozenFrames == 0 {
		t.Error("expected frozen frames under total content loss")
	}
	if stats.PayloadErrors < 2 {
		t.Errorf("payload errors = %d, want several", stats.PayloadErrors)
	}
}

func TestResilientModeNoOpOnHealthyServer(t *testing.T) {
	ts, v := corruptTestServer(t, func(string) bool { return false })
	imu := hmd.NewIMU(headtrace.Generate(v, 0))
	plain := NewPlayer(ts.URL)
	sPlain, fPlain, err := plain.Play("RS", imu, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := NewPlayer(ts.URL)
	res.Resilient = true
	sRes, fRes, err := res.Play("RS", imu, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sPlain.Hits != sRes.Hits || sPlain.Misses != sRes.Misses || len(fPlain) != len(fRes) {
		t.Error("resilient mode changed healthy-path behavior")
	}
	if sRes.PayloadErrors != 0 || sRes.FrozenFrames != 0 {
		t.Error("healthy server produced error stats")
	}
}

func isFOVVideo(p string) bool {
	return strings.Contains(p, "/fov/") && !strings.Contains(p, "fovmeta")
}
func isOrig(p string) bool { return strings.Contains(p, "/orig/") }

// corruptFrame is the frame whose coefficients the mid-segment tests zero.
const corruptFrame = 10

// playCorrupt plays RS user 0 against a server whose matching payloads have
// frame corruptFrame's coefficients zeroed, next to a healthy run.
func playCorrupt(t *testing.T, live, resilient bool, match func(string) bool) (got, healthy PlaybackStats, frames, healthyFrames []*frame.Frame, err error) {
	t.Helper()
	corrupt, v := mangledTestServer(t, live, match, zeroCoefficients(corruptFrame, server.UnmarshalBitstream))
	clean, _ := mangledTestServer(t, live, func(string) bool { return false }, nil)
	imu := func() *hmd.IMU { return hmd.NewIMU(headtrace.Generate(v, 0)) }
	healthy, healthyFrames, herr := NewPlayer(clean.URL).Play("RS", imu(), 2)
	if herr != nil {
		t.Fatal(herr)
	}
	p := NewPlayer(corrupt.URL)
	p.Resilient = resilient
	got, frames, err = p.Play("RS", imu(), 2)
	return got, healthy, frames, healthyFrames, err
}

// TestCorruptFOVFrameDegradesFromThatFrame: a FOV video whose frame 10 does
// not decode passes the fetch-time checks, so segment 0 (healthy: hits on
// frames 0–25) and segment 1 (hits on 0–12) each show FOV frames 0–9 and
// switch to the original at frame 10, not at frame 0. The frames before the
// break, and every frame the healthy run also took from the original, are
// byte-identical to the healthy run.
func TestCorruptFOVFrameDegradesFromThatFrame(t *testing.T) {
	got, healthy, frames, healthyFrames, err := playCorrupt(t, false, true, isFOVVideo)
	if err != nil {
		t.Fatalf("resilient player failed: %v", err)
	}
	if healthy.Hits != 39 || healthy.Fallbacks != 2 {
		t.Fatalf("healthy run: %d hits, %d fallbacks; the pins below assume 39 and 2", healthy.Hits, healthy.Fallbacks)
	}
	want := PlaybackStats{Frames: 60, Hits: 2 * corruptFrame, Misses: 60 - 2*corruptFrame,
		Fallbacks: 2, PayloadErrors: 2, PTEFrames: 60 - 2*corruptFrame}
	if got.Frames != want.Frames || got.Hits != want.Hits || got.Misses != want.Misses || got.Fallbacks != want.Fallbacks ||
		got.PayloadErrors != want.PayloadErrors || got.PTEFrames != want.PTEFrames || got.FrozenFrames != 0 {
		t.Errorf("got %+v\nwant frames/hits/misses/fallbacks/payload errors/PTE frames %d/%d/%d/%d/%d/%d, none frozen",
			got, want.Frames, want.Hits, want.Misses, want.Fallbacks, want.PayloadErrors, want.PTEFrames)
	}
	for _, seg := range []int{0, 1} {
		for f := 0; f < 30; f++ {
			i := 30*seg + f
			sameSource := f < corruptFrame || (seg == 0 && f >= 26) || (seg == 1 && f >= 13)
			if sameSource && !frames[i].Equal(healthyFrames[i]) {
				t.Errorf("frame %d differs from the healthy run's", i)
			}
		}
	}
}

func TestCorruptFOVFrameAbortsNonResilientPlayer(t *testing.T) {
	_, _, frames, _, err := playCorrupt(t, false, false, isFOVVideo)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("frame %d", corruptFrame)) {
		t.Fatalf("corrupt FOV frame %d: err = %v, want an error naming it", corruptFrame, err)
	}
	if frames != nil {
		t.Errorf("aborted playback returned %d frames", len(frames))
	}
}

// TestCorruptOrigFrameFreezesFromThatFrame: under live ingest every frame
// plays from the original; with frame 10 undecodable each segment renders
// frames 0–9 and freezes on frame 9 for the rest of the segment.
func TestCorruptOrigFrameFreezesFromThatFrame(t *testing.T) {
	got, _, frames, healthyFrames, err := playCorrupt(t, true, true, isOrig)
	if err != nil {
		t.Fatalf("resilient player failed: %v", err)
	}
	if got.Frames != 60 || got.Hits != 0 || got.Fallbacks != 2 || got.PayloadErrors != 2 ||
		got.PTEFrames != 2*corruptFrame || got.FrozenFrames != 60-2*corruptFrame {
		t.Errorf("got %+v\nwant 60 frames, 0 hits, 2 fallbacks, 2 payload errors, %d PTE frames, %d frozen",
			got, 2*corruptFrame, 60-2*corruptFrame)
	}
	for _, seg := range []int{0, 1} {
		for f := 0; f < 30; f++ {
			i, want := 30*seg+f, healthyFrames[30*seg+min(f, corruptFrame-1)]
			if !frames[i].Equal(want) {
				t.Errorf("frame %d is not the healthy frame %d", i, 30*seg+min(f, corruptFrame-1))
			}
		}
	}
}

func TestCorruptOrigFrameAbortsNonResilientPlayer(t *testing.T) {
	_, _, _, _, err := playCorrupt(t, true, false, isOrig)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("frame %d", corruptFrame)) {
		t.Fatalf("corrupt original frame %d: err = %v, want an error naming it", corruptFrame, err)
	}
}
