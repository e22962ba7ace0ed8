package client

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"evr/internal/delivery"
	"evr/internal/frame"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
	"evr/internal/telemetry"
)

// fault mangles the responses whose paths contain any of its path elements.
type fault struct {
	name   string
	paths  []string
	mangle func([]byte) []byte
}

var (
	frameBroken = zeroCoefficients(corruptFrame, server.UnmarshalBitstream)
	tileBroken  = zeroCoefficients(corruptFrame, tileBits)

	classicFaults = []fault{
		{"healthy", nil, nil},
		{"fov-payload", []string{"/fov/"}, truncateAndFlip},
		{"fovmeta-payload", []string{"/fovmeta/"}, truncateAndFlip},
		{"fov-frame10", []string{"/fov/"}, frameBroken},
		{"orig-payload", []string{"/orig/"}, truncateAndFlip},
		{"orig-frame10", []string{"/orig/"}, frameBroken},
		{"fov+orig-payload", []string{"/fov/", "/orig/"}, truncateAndFlip},
		{"fov+orig-frame10", []string{"/fov/", "/orig/"}, frameBroken},
	}
	tiledFaults = []fault{
		{"healthy", nil, nil},
		{"backfill-payload", []string{"/tilelow/"}, truncateAndFlip},
		{"backfill-frame10", []string{"/tilelow/"}, frameBroken},
		{"tile-payload", []string{"/tile/"}, truncateAndFlip},
		{"tile-frame10", []string{"/tile/"}, tileBroken},
		{"backfill+orig-payload", []string{"/tilelow/", "/orig/"}, truncateAndFlip},
		{"backfill+orig-frame10", []string{"/tilelow/", "/orig/"}, frameBroken},
		{"fov-payload", []string{"/fov/"}, truncateAndFlip},
		{"fov-frame10", []string{"/fov/"}, frameBroken},
	}
)

// ladderPin is what one degrade case pins: the error text (the server URL
// replaced by "URL"), the playback counters that do not depend on fetch
// timing, the displayed-frame checksum, and the per-frame stage signature.
type ladderPin struct {
	err, stats string
	sum        uint64
	sig        string
}

// TestDegradeLadderPinned plays RS user 0 (two segments at 96×48) through
// every way a segment can degrade — a payload that fails at fetch, a frame
// that fails at decode, on each stream role and pairs of them, resilient or
// not — and pins each outcome. Classic cases cover VOD and live ingest under
// the PTE and the float pipeline; tiled cases cover every forced mode and the
// auto policy. The values were recorded at commit 96064d3, before Play's
// per-segment source became one ladder, and the refactor kept every one.
// The byte-derived fields — the frame a truncated payload fails at,
// ModeledBytes and ModeledStartupSec — were re-recorded when coefficient
// lists moved from end-of-block runs to last flags; every checksum and
// signature held. The strict VOD fovmeta-payload errors were re-recorded
// when FOV metadata moved from JSON to 16 bytes per frame. When a segment
// moved to one header for all its frames, the error text of payloads that
// fail at fetch and the byte-derived fields were re-recorded, and every
// checksum and signature held again.
func TestDegradeLadderPinned(t *testing.T) {
	v, _ := scene.ByName("RS")
	handlers := map[string]http.Handler{}
	for _, kind := range []string{"vod", "live", "tiled"} {
		cfg := server.DefaultIngestConfig()
		cfg.FullW, cfg.FullH = 96, 48
		cfg.FOVW, cfg.FOVH = 32, 32
		cfg.MaxSegments = 2
		cfg.Codec.SearchRange = 1
		cfg.LiveMode = kind == "live"
		cfg.Tiled = kind == "tiled"
		svc := server.NewService(store.New())
		if _, err := svc.IngestVideo(v, cfg); err != nil {
			t.Fatal(err)
		}
		handlers[kind] = svc.Handler()
	}
	trace := headtrace.Generate(v, 0)
	play := func(kind string, f fault, configure func(*Player)) ladderPin {
		h := handlers[kind]
		if f.mangle != nil {
			h = corruptingHandler(h, func(p string) bool {
				return slices.ContainsFunc(f.paths, func(s string) bool { return strings.Contains(p, s) })
			}, f.mangle)
		}
		srv := httptest.NewServer(h)
		defer srv.Close()
		p := NewPlayer(srv.URL)
		p.Fetch = fastFetchConfig()
		p.Trace = telemetry.NewTracer(0)
		configure(p)
		stats, frames, err := p.Play("RS", hmd.NewIMU(trace), 2)
		pin := ladderPin{err: "nil", stats: ladderStats(stats), sum: ladderChecksum(frames), sig: ladderSignature(p.Trace)}
		if err != nil {
			pin.err = strings.ReplaceAll(err.Error(), srv.URL, "URL")
		}
		return pin
	}
	onOff := map[bool]string{false: "strict", true: "res"}
	pipeline := map[bool]string{true: "har", false: "float"}
	var got []string
	for _, kind := range []string{"vod", "live"} {
		for _, f := range classicFaults {
			for _, res := range []bool{false, true} {
				for _, har := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s/%s/%s", kind, f.name, onOff[res], pipeline[har])
					pin := play(kind, f, func(p *Player) { p.Resilient, p.UseHAR = res, har })
					got = append(got, checkLadder(t, name, pin))
				}
			}
		}
	}
	for _, f := range tiledFaults {
		for _, mode := range []delivery.Mode{delivery.ModeAuto, delivery.ModeTiled, delivery.ModeFOV, delivery.ModeOrig} {
			for _, res := range []bool{false, true} {
				name := fmt.Sprintf("tiled/%s/%s/%s", f.name, mode, onOff[res])
				pin := play("tiled", f, func(p *Player) {
					p.Resilient = res
					p.Tiled = TiledConfig{Enabled: true, Force: mode}
				})
				got = append(got, checkLadder(t, name, pin))
			}
		}
	}
	if len(got) != len(ladderPins) {
		t.Errorf("played %d cases, %d pinned", len(got), len(ladderPins))
	}
	if t.Failed() {
		t.Logf("recorded pins:\n%s", strings.Join(got, "\n"))
	}
}

// checkLadder compares one case against its pin and returns the case as a
// pin-table line.
func checkLadder(t *testing.T, name string, pin ladderPin) string {
	t.Helper()
	if want, ok := ladderPins[name]; !ok || want != pin {
		t.Errorf("%s:\n got %+v\nwant %+v", name, pin, want)
	}
	return fmt.Sprintf("\t%q: {%q, %q, %#x, %q},", name, pin.err, pin.stats, pin.sum, pin.sig)
}

// ladderStats formats the non-zero playback counters, leaving out the
// fetch-layer ones and the energy ledger, which prices BytesFetched:
// prefetch timing moves them run to run.
func ladderStats(s PlaybackStats) string {
	s.Energy = Energy{}
	s.BytesFetched, s.CacheHits, s.PrefetchHits, s.Retries, s.RetryAfterWaits, s.TimedOut = 0, 0, 0, 0, 0, 0
	s.LiveWaits, s.LiveSegments, s.BehindLiveMaxSec = 0, 0, 0
	var parts []string
	rv := reflect.ValueOf(s)
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); !f.IsZero() {
			parts = append(parts, fmt.Sprintf("%s:%v", rv.Type().Field(i).Name, f.Interface()))
		}
	}
	return strings.Join(parts, " ")
}

// ladderChecksum is FNV-1a over the displayed frames' pixels.
func ladderChecksum(frames []*frame.Frame) uint64 {
	h := fnv.New64a()
	for _, f := range frames {
		h.Write(f.Pix)
	}
	return h.Sum64()
}

// ladderSignature run-length encodes which of hit, decode, render and display
// each traced frame had: "hds×10 dr×20" is ten cropped FOV hits, then twenty
// rendered frames; "-" is a frame with none (frozen or blank).
func ladderSignature(tr *telemetry.Tracer) string {
	var runs []string
	prev, n := "", 0
	flush := func() {
		if n > 0 {
			runs = append(runs, fmt.Sprintf("%s×%d", prev, n))
		}
	}
	for _, r := range tr.Recent(0) {
		tok := ""
		if r.Hit {
			tok += "h"
		}
		for _, st := range []struct {
			stage telemetry.Stage
			c     string
		}{{telemetry.StageDecode, "d"}, {telemetry.StageRender, "r"}, {telemetry.StageDisplay, "s"}} {
			if r.Stages[st.stage] > 0 {
				tok += st.c
			}
		}
		if tok == "" {
			tok = "-"
		}
		if tok != prev {
			flush()
			prev, n = tok, 0
		}
		n++
	}
	flush()
	return strings.Join(runs, " ")
}

// ladderPins holds the recorded outcome of every degrade case.
var ladderPins = map[string]ladderPin{
	"vod/healthy/strict/har":                   {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PTEFrames:21", 0x2ad41fc609102aa0, "hds×26 dr×4 hds×13 dr×17"},
	"vod/healthy/strict/float":                 {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2", 0x141cd30f8b2b1e44, "hds×26 dr×4 hds×13 dr×17"},
	"vod/healthy/res/har":                      {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PTEFrames:21", 0x2ad41fc609102aa0, "hds×26 dr×4 hds×13 dr×17"},
	"vod/healthy/res/float":                    {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2", 0x141cd30f8b2b1e44, "hds×26 dr×4 hds×13 dr×17"},
	"vod/fov-payload/strict/har":               {"codec: segment quality 249 out of [1, 64]", "", 0xcbf29ce484222325, ""},
	"vod/fov-payload/strict/float":             {"codec: segment quality 249 out of [1, 64]", "", 0xcbf29ce484222325, ""},
	"vod/fov-payload/res/har":                  {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 PayloadErrors:2", 0x9bceddb43c759e9, "dr×60"},
	"vod/fov-payload/res/float":                {"nil", "Frames:60 Misses:60 Fallbacks:2 PayloadErrors:2", 0x814f39ec080dcffb, "dr×60"},
	"vod/fovmeta-payload/strict/har":           {"client: parsing FOV metadata: server: FOV metadata is 240 bytes, want 480 (30 frames)", "", 0xcbf29ce484222325, ""},
	"vod/fovmeta-payload/strict/float":         {"client: parsing FOV metadata: server: FOV metadata is 240 bytes, want 480 (30 frames)", "", 0xcbf29ce484222325, ""},
	"vod/fovmeta-payload/res/har":              {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 PayloadErrors:2", 0x9bceddb43c759e9, "dr×60"},
	"vod/fovmeta-payload/res/float":            {"nil", "Frames:60 Misses:60 Fallbacks:2 PayloadErrors:2", 0x814f39ec080dcffb, "dr×60"},
	"vod/fov-frame10/strict/har":               {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:10 Hits:10", 0xcbf29ce484222325, "hds×10 d×1"},
	"vod/fov-frame10/strict/float":             {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:10 Hits:10", 0xcbf29ce484222325, "hds×10 d×1"},
	"vod/fov-frame10/res/har":                  {"nil", "Frames:60 Hits:20 Misses:40 Fallbacks:2 PTEFrames:40 PayloadErrors:2", 0x40b8b55acf636593, "hds×10 dr×20 hds×10 dr×20"},
	"vod/fov-frame10/res/float":                {"nil", "Frames:60 Hits:20 Misses:40 Fallbacks:2 PayloadErrors:2", 0x5199026624bf0083, "hds×10 dr×20 hds×10 dr×20"},
	"vod/orig-payload/strict/har":              {"codec: segment quality 249 out of [1, 64]", "Frames:26 Hits:26", 0xcbf29ce484222325, "hds×26 -×1"},
	"vod/orig-payload/strict/float":            {"codec: segment quality 249 out of [1, 64]", "Frames:26 Hits:26", 0xcbf29ce484222325, "hds×26 -×1"},
	"vod/orig-payload/res/har":                 {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PayloadErrors:2 FrozenFrames:21", 0x9036dd7c9b518e42, "hds×26 d×4 hds×13 d×17"},
	"vod/orig-payload/res/float":               {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PayloadErrors:2 FrozenFrames:21", 0x9036dd7c9b518e42, "hds×26 d×4 hds×13 d×17"},
	"vod/orig-frame10/strict/har":              {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:26 Hits:26 Fallbacks:1", 0xcbf29ce484222325, "hds×26 d×1"},
	"vod/orig-frame10/strict/float":            {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:26 Hits:26 Fallbacks:1", 0xcbf29ce484222325, "hds×26 d×1"},
	"vod/orig-frame10/res/har":                 {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PayloadErrors:2 FrozenFrames:21", 0x9036dd7c9b518e42, "hds×26 d×4 hds×13 d×17"},
	"vod/orig-frame10/res/float":               {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PayloadErrors:2 FrozenFrames:21", 0x9036dd7c9b518e42, "hds×26 d×4 hds×13 d×17"},
	"vod/fov+orig-payload/strict/har":          {"codec: segment quality 249 out of [1, 64]", "", 0xcbf29ce484222325, ""},
	"vod/fov+orig-payload/strict/float":        {"codec: segment quality 249 out of [1, 64]", "", 0xcbf29ce484222325, ""},
	"vod/fov+orig-payload/res/har":             {"nil", "Frames:60 Misses:60 Fallbacks:2 PayloadErrors:4 FrozenFrames:59", 0xbc71e7769f1eb325, "d×60"},
	"vod/fov+orig-payload/res/float":           {"nil", "Frames:60 Misses:60 Fallbacks:2 PayloadErrors:4 FrozenFrames:59", 0xbc71e7769f1eb325, "d×60"},
	"vod/fov+orig-frame10/strict/har":          {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:10 Hits:10", 0xcbf29ce484222325, "hds×10 d×1"},
	"vod/fov+orig-frame10/strict/float":        {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:10 Hits:10", 0xcbf29ce484222325, "hds×10 d×1"},
	"vod/fov+orig-frame10/res/har":             {"nil", "Frames:60 Hits:20 Misses:40 Fallbacks:2 PayloadErrors:4 FrozenFrames:40", 0x90b2c950193916b0, "hds×10 d×20 hds×10 d×20"},
	"vod/fov+orig-frame10/res/float":           {"nil", "Frames:60 Hits:20 Misses:40 Fallbacks:2 PayloadErrors:4 FrozenFrames:40", 0x90b2c950193916b0, "hds×10 d×20 hds×10 d×20"},
	"live/healthy/strict/har":                  {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60", 0x9bceddb43c759e9, "dr×60"},
	"live/healthy/strict/float":                {"nil", "Frames:60 Misses:60 Fallbacks:2", 0x814f39ec080dcffb, "dr×60"},
	"live/healthy/res/har":                     {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60", 0x9bceddb43c759e9, "dr×60"},
	"live/healthy/res/float":                   {"nil", "Frames:60 Misses:60 Fallbacks:2", 0x814f39ec080dcffb, "dr×60"},
	"live/fov-payload/strict/har":              {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60", 0x9bceddb43c759e9, "dr×60"},
	"live/fov-payload/strict/float":            {"nil", "Frames:60 Misses:60 Fallbacks:2", 0x814f39ec080dcffb, "dr×60"},
	"live/fov-payload/res/har":                 {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60", 0x9bceddb43c759e9, "dr×60"},
	"live/fov-payload/res/float":               {"nil", "Frames:60 Misses:60 Fallbacks:2", 0x814f39ec080dcffb, "dr×60"},
	"live/fovmeta-payload/strict/har":          {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60", 0x9bceddb43c759e9, "dr×60"},
	"live/fovmeta-payload/strict/float":        {"nil", "Frames:60 Misses:60 Fallbacks:2", 0x814f39ec080dcffb, "dr×60"},
	"live/fovmeta-payload/res/har":             {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60", 0x9bceddb43c759e9, "dr×60"},
	"live/fovmeta-payload/res/float":           {"nil", "Frames:60 Misses:60 Fallbacks:2", 0x814f39ec080dcffb, "dr×60"},
	"live/fov-frame10/strict/har":              {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60", 0x9bceddb43c759e9, "dr×60"},
	"live/fov-frame10/strict/float":            {"nil", "Frames:60 Misses:60 Fallbacks:2", 0x814f39ec080dcffb, "dr×60"},
	"live/fov-frame10/res/har":                 {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60", 0x9bceddb43c759e9, "dr×60"},
	"live/fov-frame10/res/float":               {"nil", "Frames:60 Misses:60 Fallbacks:2", 0x814f39ec080dcffb, "dr×60"},
	"live/orig-payload/strict/har":             {"codec: segment quality 249 out of [1, 64]", "", 0xcbf29ce484222325, ""},
	"live/orig-payload/strict/float":           {"codec: segment quality 249 out of [1, 64]", "", 0xcbf29ce484222325, ""},
	"live/orig-payload/res/har":                {"nil", "Frames:60 Misses:60 Fallbacks:2 PayloadErrors:2 FrozenFrames:59", 0xbc71e7769f1eb325, "d×60"},
	"live/orig-payload/res/float":              {"nil", "Frames:60 Misses:60 Fallbacks:2 PayloadErrors:2 FrozenFrames:59", 0xbc71e7769f1eb325, "d×60"},
	"live/orig-frame10/strict/har":             {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:10 Misses:10 Fallbacks:1 PTEFrames:10", 0xcbf29ce484222325, "dr×10 d×1"},
	"live/orig-frame10/strict/float":           {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:10 Misses:10 Fallbacks:1", 0xcbf29ce484222325, "dr×10 d×1"},
	"live/orig-frame10/res/har":                {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:20 PayloadErrors:2 FrozenFrames:40", 0x257cdcbd45f9349e, "dr×10 d×20 dr×10 d×20"},
	"live/orig-frame10/res/float":              {"nil", "Frames:60 Misses:60 Fallbacks:2 PayloadErrors:2 FrozenFrames:40", 0x3c02d653cd1a7e70, "dr×10 d×20 dr×10 d×20"},
	"live/fov+orig-payload/strict/har":         {"codec: segment quality 249 out of [1, 64]", "", 0xcbf29ce484222325, ""},
	"live/fov+orig-payload/strict/float":       {"codec: segment quality 249 out of [1, 64]", "", 0xcbf29ce484222325, ""},
	"live/fov+orig-payload/res/har":            {"nil", "Frames:60 Misses:60 Fallbacks:2 PayloadErrors:2 FrozenFrames:59", 0xbc71e7769f1eb325, "d×60"},
	"live/fov+orig-payload/res/float":          {"nil", "Frames:60 Misses:60 Fallbacks:2 PayloadErrors:2 FrozenFrames:59", 0xbc71e7769f1eb325, "d×60"},
	"live/fov+orig-frame10/strict/har":         {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:10 Misses:10 Fallbacks:1 PTEFrames:10", 0xcbf29ce484222325, "dr×10 d×1"},
	"live/fov+orig-frame10/strict/float":       {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:10 Misses:10 Fallbacks:1", 0xcbf29ce484222325, "dr×10 d×1"},
	"live/fov+orig-frame10/res/har":            {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:20 PayloadErrors:2 FrozenFrames:40", 0x257cdcbd45f9349e, "dr×10 d×20 dr×10 d×20"},
	"live/fov+orig-frame10/res/float":          {"nil", "Frames:60 Misses:60 Fallbacks:2 PayloadErrors:2 FrozenFrames:40", 0x3c02d653cd1a7e70, "dr×10 d×20 dr×10 d×20"},
	"tiled/healthy/auto/strict":                {"nil", "Frames:60 Hits:26 Misses:34 Fallbacks:1 PTEFrames:34 ModeFOVSegments:1 ModeTiledSegments:1 TiledTiles:5 MispredictedTiles:30 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3439", 0x14aa83bf8c66b6b4, "hds×26 dr×34"},
	"tiled/healthy/auto/res":                   {"nil", "Frames:60 Hits:26 Misses:34 Fallbacks:1 PTEFrames:34 ModeFOVSegments:1 ModeTiledSegments:1 TiledTiles:5 MispredictedTiles:30 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3439", 0x14aa83bf8c66b6b4, "hds×26 dr×34"},
	"tiled/healthy/tiled/strict":               {"nil", "Frames:60 Misses:60 PTEFrames:60 ModeTiledSegments:2 TiledTiles:9 MispredictedTiles:30 ModeledStartupSec:0.002032826666666667 ModeledBytes:2790", 0xfba00723ac9a7608, "dr×60"},
	"tiled/healthy/tiled/res":                  {"nil", "Frames:60 Misses:60 PTEFrames:60 ModeTiledSegments:2 TiledTiles:9 MispredictedTiles:30 ModeledStartupSec:0.002032826666666667 ModeledBytes:2790", 0xfba00723ac9a7608, "dr×60"},
	"tiled/healthy/fov/strict":                 {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PTEFrames:21 ModeFOVSegments:2 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3176", 0x2ad41fc609102aa0, "hds×26 dr×4 hds×13 dr×17"},
	"tiled/healthy/fov/res":                    {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PTEFrames:21 ModeFOVSegments:2 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3176", 0x2ad41fc609102aa0, "hds×26 dr×4 hds×13 dr×17"},
	"tiled/healthy/orig/strict":                {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
	"tiled/healthy/orig/res":                   {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
	"tiled/backfill-payload/auto/strict":       {"codec: segment quality 231 out of [1, 64]", "Frames:30 Hits:26 Misses:4 Fallbacks:1 PTEFrames:4 ModeFOVSegments:1 ModeTiledSegments:1", 0xcbf29ce484222325, "hds×26 dr×4"},
	"tiled/backfill-payload/auto/res":          {"nil", "Frames:60 Hits:26 Misses:34 Fallbacks:2 PTEFrames:34 PayloadErrors:1 ModeFOVSegments:1 ModeTiledSegments:1 ModeledStartupSec:0.0020501333333333336 ModeledBytes:5241", 0xbcc5d9197d540b52, "hds×26 dr×34"},
	"tiled/backfill-payload/tiled/strict":      {"codec: segment quality 231 out of [1, 64]", "ModeTiledSegments:1", 0xcbf29ce484222325, ""},
	"tiled/backfill-payload/tiled/res":         {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 PayloadErrors:2 ModeTiledSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
	"tiled/backfill-payload/fov/strict":        {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PTEFrames:21 ModeFOVSegments:2 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3176", 0x2ad41fc609102aa0, "hds×26 dr×4 hds×13 dr×17"},
	"tiled/backfill-payload/fov/res":           {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PTEFrames:21 ModeFOVSegments:2 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3176", 0x2ad41fc609102aa0, "hds×26 dr×4 hds×13 dr×17"},
	"tiled/backfill-payload/orig/strict":       {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
	"tiled/backfill-payload/orig/res":          {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
	"tiled/backfill-frame10/auto/strict":       {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:40 Hits:26 Misses:14 Fallbacks:1 PTEFrames:14 ModeFOVSegments:1 ModeTiledSegments:1 TiledTiles:5 MispredictedTiles:10", 0xcbf29ce484222325, "hds×26 dr×14 d×1"},
	"tiled/backfill-frame10/auto/res":          {"nil", "Frames:60 Hits:26 Misses:34 Fallbacks:2 PTEFrames:34 PayloadErrors:1 ModeFOVSegments:1 ModeTiledSegments:1 TiledTiles:5 MispredictedTiles:10 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3439", 0x2cc0847733ec8d47, "hds×26 dr×34"},
	"tiled/backfill-frame10/tiled/strict":      {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:10 Misses:10 PTEFrames:10 ModeTiledSegments:1 TiledTiles:4", 0xcbf29ce484222325, "dr×10 d×1"},
	"tiled/backfill-frame10/tiled/res":         {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 PayloadErrors:2 ModeTiledSegments:2 TiledTiles:9 MispredictedTiles:10 ModeledStartupSec:0.002032826666666667 ModeledBytes:2790", 0xe55d22d0aa148e9f, "dr×60"},
	"tiled/backfill-frame10/fov/strict":        {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PTEFrames:21 ModeFOVSegments:2 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3176", 0x2ad41fc609102aa0, "hds×26 dr×4 hds×13 dr×17"},
	"tiled/backfill-frame10/fov/res":           {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PTEFrames:21 ModeFOVSegments:2 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3176", 0x2ad41fc609102aa0, "hds×26 dr×4 hds×13 dr×17"},
	"tiled/backfill-frame10/orig/strict":       {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
	"tiled/backfill-frame10/orig/res":          {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
	"tiled/tile-payload/auto/strict":           {"nil", "Frames:60 Hits:26 Misses:34 Fallbacks:1 PTEFrames:34 ModeFOVSegments:1 ModeTiledSegments:1 TiledTileErrors:5 MispredictedTiles:120 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3439", 0xd8c6d290791f64be, "hds×26 dr×34"},
	"tiled/tile-payload/auto/res":              {"nil", "Frames:60 Hits:26 Misses:34 Fallbacks:1 PTEFrames:34 ModeFOVSegments:1 ModeTiledSegments:1 TiledTileErrors:5 MispredictedTiles:120 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3439", 0xd8c6d290791f64be, "hds×26 dr×34"},
	"tiled/tile-payload/tiled/strict":          {"nil", "Frames:60 Misses:60 PTEFrames:60 ModeTiledSegments:2 TiledTileErrors:9 MispredictedTiles:240 ModeledStartupSec:0.002032826666666667 ModeledBytes:2790", 0x984eeda98bfb1a81, "dr×60"},
	"tiled/tile-payload/tiled/res":             {"nil", "Frames:60 Misses:60 PTEFrames:60 ModeTiledSegments:2 TiledTileErrors:9 MispredictedTiles:240 ModeledStartupSec:0.002032826666666667 ModeledBytes:2790", 0x984eeda98bfb1a81, "dr×60"},
	"tiled/tile-payload/fov/strict":            {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PTEFrames:21 ModeFOVSegments:2 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3176", 0x2ad41fc609102aa0, "hds×26 dr×4 hds×13 dr×17"},
	"tiled/tile-payload/fov/res":               {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PTEFrames:21 ModeFOVSegments:2 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3176", 0x2ad41fc609102aa0, "hds×26 dr×4 hds×13 dr×17"},
	"tiled/tile-payload/orig/strict":           {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
	"tiled/tile-payload/orig/res":              {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
	"tiled/tile-frame10/auto/strict":           {"nil", "Frames:60 Hits:26 Misses:34 Fallbacks:1 PTEFrames:34 ModeFOVSegments:1 ModeTiledSegments:1 TiledTiles:5 TiledTileErrors:5 MispredictedTiles:90 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3439", 0x8f838cfe2191096f, "hds×26 dr×34"},
	"tiled/tile-frame10/auto/res":              {"nil", "Frames:60 Hits:26 Misses:34 Fallbacks:1 PTEFrames:34 ModeFOVSegments:1 ModeTiledSegments:1 TiledTiles:5 TiledTileErrors:5 MispredictedTiles:90 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3439", 0x8f838cfe2191096f, "hds×26 dr×34"},
	"tiled/tile-frame10/tiled/strict":          {"nil", "Frames:60 Misses:60 PTEFrames:60 ModeTiledSegments:2 TiledTiles:9 TiledTileErrors:9 MispredictedTiles:170 ModeledStartupSec:0.002032826666666667 ModeledBytes:2790", 0x4477ed9c17cd7713, "dr×60"},
	"tiled/tile-frame10/tiled/res":             {"nil", "Frames:60 Misses:60 PTEFrames:60 ModeTiledSegments:2 TiledTiles:9 TiledTileErrors:9 MispredictedTiles:170 ModeledStartupSec:0.002032826666666667 ModeledBytes:2790", 0x4477ed9c17cd7713, "dr×60"},
	"tiled/tile-frame10/fov/strict":            {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PTEFrames:21 ModeFOVSegments:2 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3176", 0x2ad41fc609102aa0, "hds×26 dr×4 hds×13 dr×17"},
	"tiled/tile-frame10/fov/res":               {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PTEFrames:21 ModeFOVSegments:2 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3176", 0x2ad41fc609102aa0, "hds×26 dr×4 hds×13 dr×17"},
	"tiled/tile-frame10/orig/strict":           {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
	"tiled/tile-frame10/orig/res":              {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
	"tiled/backfill+orig-payload/auto/strict":  {"codec: segment quality 249 out of [1, 64]", "Frames:26 Hits:26 ModeFOVSegments:1", 0xcbf29ce484222325, "hds×26 -×1"},
	"tiled/backfill+orig-payload/auto/res":     {"nil", "Frames:60 Hits:26 Misses:34 Fallbacks:2 PayloadErrors:3 FrozenFrames:34 ModeFOVSegments:1 ModeTiledSegments:1 ModeledStartupSec:0.0020501333333333336 ModeledBytes:5241", 0xd906e3241cdd1a93, "hds×26 d×34"},
	"tiled/backfill+orig-payload/tiled/strict": {"codec: segment quality 231 out of [1, 64]", "ModeTiledSegments:1", 0xcbf29ce484222325, ""},
	"tiled/backfill+orig-payload/tiled/res":    {"nil", "Frames:60 Misses:60 Fallbacks:2 PayloadErrors:4 FrozenFrames:59 ModeTiledSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0xbc71e7769f1eb325, "d×60"},
	"tiled/backfill+orig-payload/fov/strict":   {"codec: segment quality 249 out of [1, 64]", "Frames:26 Hits:26 ModeFOVSegments:1", 0xcbf29ce484222325, "hds×26 -×1"},
	"tiled/backfill+orig-payload/fov/res":      {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PayloadErrors:2 FrozenFrames:21 ModeFOVSegments:2 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3176", 0x9036dd7c9b518e42, "hds×26 d×4 hds×13 d×17"},
	"tiled/backfill+orig-payload/orig/strict":  {"codec: segment quality 249 out of [1, 64]", "ModeOrigSegments:1", 0xcbf29ce484222325, ""},
	"tiled/backfill+orig-payload/orig/res":     {"nil", "Frames:60 Misses:60 Fallbacks:2 PayloadErrors:2 FrozenFrames:59 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0xbc71e7769f1eb325, "d×60"},
	"tiled/backfill+orig-frame10/auto/strict":  {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:26 Hits:26 Fallbacks:1 ModeFOVSegments:1", 0xcbf29ce484222325, "hds×26 d×1"},
	"tiled/backfill+orig-frame10/auto/res":     {"nil", "Frames:60 Hits:26 Misses:34 Fallbacks:2 PTEFrames:10 PayloadErrors:3 FrozenFrames:24 ModeFOVSegments:1 ModeTiledSegments:1 TiledTiles:5 MispredictedTiles:10 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3439", 0xbe358f1156bd9ca9, "hds×26 d×4 dr×10 d×20"},
	"tiled/backfill+orig-frame10/tiled/strict": {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:10 Misses:10 PTEFrames:10 ModeTiledSegments:1 TiledTiles:4", 0xcbf29ce484222325, "dr×10 d×1"},
	"tiled/backfill+orig-frame10/tiled/res":    {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:20 PayloadErrors:4 FrozenFrames:40 ModeTiledSegments:2 TiledTiles:9 MispredictedTiles:10 ModeledStartupSec:0.002032826666666667 ModeledBytes:2790", 0x72da9cd11f1a4098, "dr×10 d×20 dr×10 d×20"},
	"tiled/backfill+orig-frame10/fov/strict":   {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:26 Hits:26 Fallbacks:1 ModeFOVSegments:1", 0xcbf29ce484222325, "hds×26 d×1"},
	"tiled/backfill+orig-frame10/fov/res":      {"nil", "Frames:60 Hits:39 Misses:21 Fallbacks:2 PayloadErrors:2 FrozenFrames:21 ModeFOVSegments:2 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3176", 0x9036dd7c9b518e42, "hds×26 d×4 hds×13 d×17"},
	"tiled/backfill+orig-frame10/orig/strict":  {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:10 Misses:10 Fallbacks:1 PTEFrames:10 ModeOrigSegments:1", 0xcbf29ce484222325, "dr×10 d×1"},
	"tiled/backfill+orig-frame10/orig/res":     {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:20 PayloadErrors:2 FrozenFrames:40 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x257cdcbd45f9349e, "dr×10 d×20 dr×10 d×20"},
	"tiled/fov-payload/auto/strict":            {"codec: segment quality 249 out of [1, 64]", "ModeFOVSegments:1", 0xcbf29ce484222325, ""},
	"tiled/fov-payload/auto/res":               {"nil", "Frames:60 Misses:60 Fallbacks:1 PTEFrames:60 PayloadErrors:1 ModeFOVSegments:1 ModeTiledSegments:1 TiledTiles:5 MispredictedTiles:30 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3439", 0xc6a57cf614dd17fb, "dr×60"},
	"tiled/fov-payload/tiled/strict":           {"nil", "Frames:60 Misses:60 PTEFrames:60 ModeTiledSegments:2 TiledTiles:9 MispredictedTiles:30 ModeledStartupSec:0.002032826666666667 ModeledBytes:2790", 0xfba00723ac9a7608, "dr×60"},
	"tiled/fov-payload/tiled/res":              {"nil", "Frames:60 Misses:60 PTEFrames:60 ModeTiledSegments:2 TiledTiles:9 MispredictedTiles:30 ModeledStartupSec:0.002032826666666667 ModeledBytes:2790", 0xfba00723ac9a7608, "dr×60"},
	"tiled/fov-payload/fov/strict":             {"codec: segment quality 249 out of [1, 64]", "ModeFOVSegments:1", 0xcbf29ce484222325, ""},
	"tiled/fov-payload/fov/res":                {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 PayloadErrors:2 ModeFOVSegments:2 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3176", 0x9bceddb43c759e9, "dr×60"},
	"tiled/fov-payload/orig/strict":            {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
	"tiled/fov-payload/orig/res":               {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
	"tiled/fov-frame10/auto/strict":            {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:10 Hits:10 ModeFOVSegments:1", 0xcbf29ce484222325, "hds×10 d×1"},
	"tiled/fov-frame10/auto/res":               {"nil", "Frames:60 Hits:10 Misses:50 Fallbacks:1 PTEFrames:50 PayloadErrors:1 ModeFOVSegments:1 ModeTiledSegments:1 TiledTiles:5 MispredictedTiles:30 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3439", 0x29dc16dba41628c2, "hds×10 dr×50"},
	"tiled/fov-frame10/tiled/strict":           {"nil", "Frames:60 Misses:60 PTEFrames:60 ModeTiledSegments:2 TiledTiles:9 MispredictedTiles:30 ModeledStartupSec:0.002032826666666667 ModeledBytes:2790", 0xfba00723ac9a7608, "dr×60"},
	"tiled/fov-frame10/tiled/res":              {"nil", "Frames:60 Misses:60 PTEFrames:60 ModeTiledSegments:2 TiledTiles:9 MispredictedTiles:30 ModeledStartupSec:0.002032826666666667 ModeledBytes:2790", 0xfba00723ac9a7608, "dr×60"},
	"tiled/fov-frame10/fov/strict":             {"client: frame 10: codec: truncated or corrupt bitstream", "Frames:10 Hits:10 ModeFOVSegments:1", 0xcbf29ce484222325, "hds×10 d×1"},
	"tiled/fov-frame10/fov/res":                {"nil", "Frames:60 Hits:20 Misses:40 Fallbacks:2 PTEFrames:40 PayloadErrors:2 ModeFOVSegments:2 ModeledStartupSec:0.0020501333333333336 ModeledBytes:3176", 0x40b8b55acf636593, "hds×10 dr×20 hds×10 dr×20"},
	"tiled/fov-frame10/orig/strict":            {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
	"tiled/fov-frame10/orig/res":               {"nil", "Frames:60 Misses:60 Fallbacks:2 PTEFrames:60 ModeOrigSegments:2 ModeledStartupSec:0.0020926666666666667 ModeledBytes:6836", 0x9bceddb43c759e9, "dr×60"},
}
