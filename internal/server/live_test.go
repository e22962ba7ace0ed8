package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"evr/internal/scene"
	"evr/internal/store"
)

// get runs one request through a handler and returns the recorder.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// liveIngest is smallIngest in live mode on a virtual clock.
func liveIngest(clock Clock, depth int) IngestConfig {
	cfg := smallIngest()
	cfg.Live = &LiveOptions{SegmentInterval: 10 * time.Second, QueueDepth: depth, Clock: clock}
	return cfg
}

// waitForEdge polls (real time) until the publisher has advanced the live
// edge to at least want — the producer/publisher goroutines run on real
// threads even when the schedule is virtual.
func waitForEdge(t *testing.T, ls *LiveStream, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ls.Edge() < want {
		if time.Now().After(deadline) {
			t.Fatalf("live edge stuck at %d, want ≥ %d", ls.Edge(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLiveVirtualClockSchedule pins the live serving contract on a
// deterministic schedule: ahead-of-edge requests get 425 + Retry-After,
// each clock advance publishes exactly the due segment, and published
// segments are served with the immutable publish-timestamp header.
func TestLiveVirtualClockSchedule(t *testing.T) {
	v, _ := scene.ByName("RS")
	clock := NewVirtualClock(time.Unix(1000, 0))
	st := store.New()
	ls, err := NewLiveStream(v, liveIngest(clock, 0), st)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(st)
	svc.ServeLive(ls)
	h := svc.Handler()

	man, ok := svc.Manifest("RS")
	if !ok || !man.Live || man.LiveEdge != 0 || len(man.Segments) != 2 {
		t.Fatalf("pre-start live manifest: ok=%v live=%v edge=%d segs=%d",
			ok, man.Live, man.LiveEdge, len(man.Segments))
	}
	if err := ls.Start(); err != nil {
		t.Fatal(err)
	}

	rec := get(h, "/v/RS/orig/0")
	if rec.Code != http.StatusTooEarly {
		t.Fatalf("ahead-of-edge request: status %d, want 425", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "10" {
		t.Errorf("Retry-After = %q, want %q (one full interval out)", ra, "10")
	}
	if rec := get(h, "/v/RS/orig/1"); rec.Header().Get("Retry-After") != "20" {
		t.Errorf("seg 1 Retry-After = %q, want 20 (two intervals out)", rec.Header().Get("Retry-After"))
	}
	if svc.TooEarly() != 2 {
		t.Errorf("tooEarly counter = %d, want 2", svc.TooEarly())
	}

	clock.Advance(10 * time.Second)
	waitForEdge(t, ls, 1)
	rec = get(h, "/v/RS/orig/0")
	if rec.Code != http.StatusOK {
		t.Fatalf("published segment: status %d", rec.Code)
	}
	ns, err := strconv.ParseInt(rec.Header().Get(PublishedAtHeader), 10, 64)
	if err != nil || ns != clock.Now().UnixNano() {
		t.Errorf("%s = %q, want virtual now %d", PublishedAtHeader, rec.Header().Get(PublishedAtHeader), clock.Now().UnixNano())
	}
	if rec := get(h, "/v/RS/orig/1"); rec.Code != http.StatusTooEarly {
		t.Errorf("seg 1 before its slot: status %d, want 425", rec.Code)
	}
	if man, _ := svc.Manifest("RS"); man.LiveEdge != 1 || man.Segments[0].OrigBytes == 0 {
		t.Errorf("manifest after first publish: edge=%d seg0 bytes=%d", man.LiveEdge, man.Segments[0].OrigBytes)
	}

	clock.Advance(10 * time.Second)
	waitForEdge(t, ls, 2)
	if rec := get(h, "/v/RS/orig/1"); rec.Code != http.StatusOK {
		t.Errorf("seg 1 after its slot: status %d", rec.Code)
	}
	if rec := get(h, "/v/RS/orig/99"); rec.Code != http.StatusNotFound {
		t.Errorf("past-the-end segment: status %d, want 404 (not 425)", rec.Code)
	}
	if err := ls.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveBackpressure pins the bounded pipeline: with the clock frozen the
// producer finishes exactly QueueDepth+1 segments — the one the publisher
// holds for its slot plus the queue — and then waits for a credit.
func TestLiveBackpressure(t *testing.T) {
	v, _ := scene.ByName("RS")
	clock := NewVirtualClock(time.Unix(1000, 0))
	cfg := liveIngest(clock, 1)
	cfg.MaxSegments = 4
	ls, err := NewLiveStream(v, cfg, store.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Start(); err != nil {
		t.Fatal(err)
	}
	// Once the producer has stalled it cannot finish another segment until
	// the edge moves, and the edge cannot move while the clock stands
	// still: what it has prepared by then is all it may.
	for deadline := time.Now().Add(10 * time.Second); ls.stalls.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("producer never waited for a credit (prepared %d, edge %d)", int(ls.prepared.Load()), ls.Edge())
		}
	}
	if got, want := int(ls.prepared.Load()), ls.Edge()+cfg.Live.QueueDepth+1; got != want {
		t.Fatalf("stalled producer has prepared %d segments at edge %d with depth %d, want %d",
			got, ls.Edge(), cfg.Live.QueueDepth, want)
	}
	for i := 0; i < 4; i++ {
		clock.Advance(10 * time.Second)
	}
	waitForEdge(t, ls, 4)
	if err := ls.Wait(); err != nil {
		t.Fatal(err)
	}
	if int(ls.prepared.Load()) != 4 {
		t.Errorf("prepared %d of 4 after drain", int(ls.prepared.Load()))
	}
}

// TestLivePayloadsMatchBatchIngest is the byte-identity gate between the
// two ingest paths: the live pipeline must commit exactly the bytes a batch
// ingest of the same spec produces, so live playback displays the same
// pixels as VOD.
func TestLivePayloadsMatchBatchIngest(t *testing.T) {
	v, _ := scene.ByName("RS")
	clock := NewVirtualClock(time.Unix(1000, 0))
	liveStore := store.New()
	ls, err := NewLiveStream(v, liveIngest(clock, 0), liveStore)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Start(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(20 * time.Second)
	waitForEdge(t, ls, 2)
	if err := ls.Wait(); err != nil {
		t.Fatal(err)
	}

	batchStore := store.New()
	batchCfg := smallIngest()
	batchCfg.LiveMode = true
	if _, err := Ingest(v, batchCfg, batchStore); err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < 2; seg++ {
		liveB, _, ok := liveStore.Get(Ref{Video: "RS", Kind: Orig, Seg: seg}.StoreKey())
		if !ok {
			t.Fatalf("live seg %d missing from store", seg)
		}
		batchB, _, ok := batchStore.Get(Ref{Video: "RS", Kind: Orig, Seg: seg}.StoreKey())
		if !ok {
			t.Fatalf("batch seg %d missing from store", seg)
		}
		if string(liveB) != string(batchB) {
			t.Errorf("seg %d: live payload (%d bytes) differs from batch ingest (%d bytes)",
				seg, len(liveB), len(batchB))
		}
	}
}

// TestLiveDelayPublishHoldsSchedule pins the chaos drop-publish fault: a
// held segment stays 425 through its original slot and publishes at the
// pushed-out time; later segments queue behind it in order.
func TestLiveDelayPublishHoldsSchedule(t *testing.T) {
	v, _ := scene.ByName("RS")
	clock := NewVirtualClock(time.Unix(1000, 0))
	st := store.New()
	ls, err := NewLiveStream(v, liveIngest(clock, 0), st)
	if err != nil {
		t.Fatal(err)
	}
	ls.DelayPublish(0, 2)
	svc := NewService(st)
	svc.ServeLive(ls)
	h := svc.Handler()
	if err := ls.Start(); err != nil {
		t.Fatal(err)
	}

	clock.Advance(10 * time.Second)
	time.Sleep(30 * time.Millisecond)
	if rec := get(h, "/v/RS/orig/0"); rec.Code != http.StatusTooEarly {
		t.Fatalf("held segment published in its original slot: status %d", rec.Code)
	}
	if ra := rec425RetryAfter(h); ra != 20 {
		t.Errorf("held segment Retry-After = %d, want 20 (pushed out two intervals)", ra)
	}
	clock.Advance(20 * time.Second)
	waitForEdge(t, ls, 2)
	if rec := get(h, "/v/RS/orig/0"); rec.Code != http.StatusOK {
		t.Errorf("held segment after pushed-out slot: status %d", rec.Code)
	}
	if err := ls.Wait(); err != nil {
		t.Fatal(err)
	}
}

// rec425RetryAfter fetches seg 0 and returns its Retry-After as an int.
func rec425RetryAfter(h http.Handler) int {
	rec := get(h, "/v/RS/orig/0")
	n, _ := strconv.Atoi(rec.Header().Get("Retry-After"))
	return n
}

// TestLiveStreamRejects pins constructor validation.
func TestLiveStreamRejects(t *testing.T) {
	v, _ := scene.ByName("RS")
	bad := smallIngest()
	bad.Live = &LiveOptions{SegmentInterval: -time.Second}
	if _, err := NewLiveStream(v, bad, store.New()); err == nil {
		t.Error("negative interval accepted")
	}
	bad = smallIngest()
	bad.Live = &LiveOptions{QueueDepth: -1}
	if _, err := NewLiveStream(v, bad, store.New()); err == nil {
		t.Error("negative queue depth accepted")
	}
	if err := (&LiveOptions{}).Validate(); err != nil {
		t.Errorf("zero options must validate: %v", err)
	}
	ls, err := NewLiveStream(v, liveIngest(NewVirtualClock(time.Unix(0, 0)), 0), store.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ls.Start(); err == nil {
		t.Error("double Start accepted")
	}
	clk := ls.Clock().(*VirtualClock)
	clk.Advance(20 * time.Second)
	waitForEdge(t, ls, 2)
	if err := ls.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, ok := ls.PublishedAtNs(99); ok {
		t.Error("out-of-range PublishedAtNs reported ok")
	}
}
