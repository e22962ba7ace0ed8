package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"evr/internal/client"
	"evr/internal/delivery"
	"evr/internal/loadgen"
	"evr/internal/projection"
)

func validScenario() *Scenario {
	sc, ok := Builtin("ci-smoke")
	if !ok {
		panic("ci-smoke builtin missing")
	}
	return sc
}

func TestBuiltinsValidate(t *testing.T) {
	for _, name := range BuiltinNames() {
		sc, ok := Builtin(name)
		if !ok {
			t.Fatalf("Builtin(%q) missing", name)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", name, err)
		}
	}
}

func TestScenarioValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "name required"},
		{"zero passes", func(s *Scenario) { s.Passes = 0 }, "passes"},
		{"bad width", func(s *Scenario) { s.Width = 8 }, "width"},
		{"negative shards", func(s *Scenario) { s.Shards = -1 }, "shards"},
		{"empty fleet", func(s *Scenario) { s.Fleet = nil }, "class"},
		{"unknown video", func(s *Scenario) { s.Fleet[0].Video = "nope" }, "unknown video"},
		{"unknown projection", func(s *Scenario) { s.Fleet[0].Projection = "fisheye" }, "projection"},
		{"unknown delivery", func(s *Scenario) { s.Fleet[0].Delivery = "teleport" }, "delivery"},
		{"dup class", func(s *Scenario) { s.Fleet[1].Name = s.Fleet[0].Name }, "duplicate"},
		{"split projection", func(s *Scenario) {
			s.Fleet[1].Video = s.Fleet[0].Video
			s.Fleet[1].Projection = "cmp"
			s.Fleet[0].Projection = "erp"
		}, "share its projection"},
		{"tiled live", func(s *Scenario) { s.Fleet[0].Delivery = delivery.ModeAuto.String() }, "orig-only"},
		{"orig-pinned live", func(s *Scenario) { s.Fleet[0].Delivery = delivery.ModeOrig.String() }, "orig-only"},
		{"half pte", func(s *Scenario) { s.Fleet[0].PTETotalBits = 20 }, "together"},
		{"bad pte", func(s *Scenario) { s.Fleet[0].PTETotalBits = 99; s.Fleet[0].PTEIntBits = 4 }, "total bits"},
		{"unknown link", func(s *Scenario) { s.Fleet[0].Link = "carrier-pigeon" }, "link class"},
		{"loss one", func(s *Scenario) { s.Fleet[0].Loss = 1 }, "loss"},
		{"shard fault on single", func(s *Scenario) { s.Shards = 1 }, "shards ≥ 2"},
		{"fault shard range", func(s *Scenario) { s.Faults[0].Shard = 7 }, "out of range"},
		{"fault pass range", func(s *Scenario) { s.Faults[0].Pass = 9 }, "out of range"},
		{"slow shard no delay", func(s *Scenario) { s.Faults[1].DelayMs = 0 }, "delayMs"},
		{"reingest live", func(s *Scenario) { s.Faults[3].Video = "RS" }, "live video"},
		{"reingest unplayed", func(s *Scenario) { s.Faults[3].Video = "Rhino" }, "not played"},
		{"drop publish no live", func(s *Scenario) { s.Live = nil }, ""},
		{"unknown fault", func(s *Scenario) { s.Faults[0].Type = "meteor" }, "unknown type"},
		{"negative slo", func(s *Scenario) { s.SLO.MaxFailures = -1 }, "SLO"},
	}
	for _, tc := range cases {
		sc := validScenario()
		tc.mut(sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a broken scenario", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := validScenario().Validate(); err != nil {
		t.Fatalf("unmutated scenario must validate: %v", err)
	}
}

// TestProjectionMethod pins the one parse of a class's projection word:
// every word Validate accepts names the method the runner ingests with, so
// "" and "erp" are one projection for the classes sharing a video.
func TestProjectionMethod(t *testing.T) {
	for word, want := range map[string]projection.Method{"": projection.ERP, "erp": projection.ERP, "cmp": projection.CMP, "eac": projection.EAC} {
		c := Class{Name: "c", Projection: word}
		if got, err := c.ProjectionMethod(); err != nil || got != want {
			t.Errorf("%q: got %v, %v; want %v", word, got, err, want)
		}
	}
	for _, word := range []string{"ERP", "fisheye", " erp"} {
		c := Class{Name: "c", Projection: word}
		if _, err := c.ProjectionMethod(); err == nil {
			t.Errorf("%q accepted", word)
		}
	}
	sc := validScenario()
	sc.Fleet[1].Projection = "erp"
	sc.Fleet[2].Video, sc.Fleet[2].Projection = sc.Fleet[1].Video, ""
	if err := sc.Validate(); err != nil {
		t.Errorf(`"" and "erp" sharing a video rejected: %v`, err)
	}
}

// TestFaultScheduleDeterministic drives two engines from the same scenario
// and asserts identical loss decisions and identical schedule logs.
func TestFaultScheduleDeterministic(t *testing.T) {
	sc := validScenario()
	decisions := func() []string {
		e := NewEngine(sc)
		rt := e.WrapTransport(4, "vod-cmp-lossy", failBase{})
		ft, ok := rt.(*faultTransport)
		if !ok {
			t.Fatal("lossy class should get a fault transport")
		}
		var out []string
		for seg := 0; seg < 4; seg++ {
			for attempt := 0; attempt < 3; attempt++ {
				url := "/v/Paris/orig/" + string(rune('0'+seg))
				if hashFrac(ft.seed, url, attempt, 0x10550000) < 0.05 {
					out = append(out, url)
				}
			}
		}
		return out
	}
	a, b := decisions(), decisions()
	if len(a) != len(b) {
		t.Fatalf("loss schedule differs across engines: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loss schedule differs at %d: %v vs %v", i, a, b)
		}
	}
}

// failBase is a RoundTripper that must never be reached in unit tests.
type failBase struct{}

func (failBase) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("unit test: base transport should not be hit")
}

// TestWrapTransportPassthrough: a class with no network profile keeps the
// base transport untouched.
func TestWrapTransportPassthrough(t *testing.T) {
	sc := validScenario()
	e := NewEngine(sc)
	base := failBase{}
	if got := e.WrapTransport(0, "live-erp", base); got == base {
		t.Fatal("live-erp names a wifi300 link; expected a fault transport")
	}
	if got := e.WrapTransport(0, "no-such-class", base); got != http.RoundTripper(base) {
		t.Fatal("unknown class must keep the base transport")
	}
}

// TestFaultTransportLossDeterministic asserts the injected loss pattern is
// a pure function of (seed, url, attempt) — same across transports and
// after resetAttempts.
func TestFaultTransportLossDeterministic(t *testing.T) {
	cls := &Class{Name: "c", Users: 1, Video: "RS", Loss: 0.5}
	mk := func() *faultTransport { return newFaultTransport(okBase{}, 1234, cls) }
	pattern := func(ft *faultTransport) []bool {
		var out []bool
		for i := 0; i < 20; i++ {
			req, _ := http.NewRequest(http.MethodGet, "http://x/v/RS/orig/0", nil)
			_, err := ft.RoundTrip(req)
			out = append(out, err != nil)
		}
		return out
	}
	a := pattern(mk())
	b := pattern(mk())
	lost := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loss pattern diverged at attempt %d", i)
		}
		if a[i] {
			lost++
		}
	}
	if lost == 0 || lost == len(a) {
		t.Fatalf("with 50%% loss over %d attempts, got %d losses — hash looks degenerate", len(a), lost)
	}
	ft := mk()
	first := pattern(ft)
	ft.resetAttempts()
	second := pattern(ft)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("resetAttempts did not replay the schedule (attempt %d)", i)
		}
	}
}

// okBase returns an empty 200 for any request.
type okBase struct{}

func (okBase) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(nil)), Header: make(http.Header)}, nil
}

func TestEvaluateGates(t *testing.T) {
	sc := validScenario()
	good := &loadgen.Report{
		Results: []loadgen.UserResult{
			{User: 0, Pass: 1, Checksum: 11}, {User: 0, Pass: 2, Checksum: 11},
			{User: 1, Pass: 1, Checksum: 22}, {User: 1, Pass: 2, Checksum: 22},
		},
		Classes: []loadgen.ClassStats{{Name: "live-erp", Sessions: 4, PlaybackStats: client.PlaybackStats{LiveSegments: 8}, BehindLiveP99Sec: 0.4}},
	}
	if res := Evaluate(sc, good); !res.Passed {
		t.Fatalf("clean report must pass, got %v", res.Problems)
	}

	diverged := &loadgen.Report{Results: []loadgen.UserResult{
		{User: 0, Pass: 1, Checksum: 11}, {User: 0, Pass: 2, Checksum: 12},
	}}
	if res := Evaluate(sc, diverged); res.Passed {
		t.Fatal("checksum divergence must fail the gate")
	}

	failed := &loadgen.Report{Results: []loadgen.UserResult{
		{User: 0, Pass: 1, Err: errors.New("boom")},
	}}
	if res := Evaluate(sc, failed); res.Passed {
		t.Fatal("session failure beyond budget must fail the gate")
	}

	stale := &loadgen.Report{Classes: []loadgen.ClassStats{
		{Name: "live-erp", Sessions: 2, PlaybackStats: client.PlaybackStats{LiveSegments: 4}, BehindLiveP99Sec: 99},
	}}
	if res := Evaluate(sc, stale); res.Passed {
		t.Fatal("freshness SLO violation must fail the gate")
	}

	sc.SLO.MaxStallsPerSession = 0.5
	stalled := &loadgen.Report{Classes: []loadgen.ClassStats{
		{Name: "vod-cmp-lossy", Sessions: 2, PlaybackStats: client.PlaybackStats{ModeledStalls: 9}},
	}}
	if res := Evaluate(sc, stalled); res.Passed {
		t.Fatal("stall SLO violation must fail the gate")
	}
}

func TestLoadBuiltinAndJSON(t *testing.T) {
	sc, err := Load("ci-smoke")
	if err != nil || sc.Name != "ci-smoke" {
		t.Fatalf("Load builtin: %v", err)
	}
	raw, err := json.Marshal(validScenario())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/sc.json"
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sc2, err := Load(path)
	if err != nil {
		t.Fatalf("Load JSON: %v", err)
	}
	if sc2.Name != sc.Name || len(sc2.Fleet) != len(sc.Fleet) {
		t.Fatal("JSON round trip lost scenario content")
	}
	if _, err := Load("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario must error")
	}
}
