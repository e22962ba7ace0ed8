package server

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"evr/internal/cache"
	"evr/internal/codec"
	"evr/internal/telemetry"
)

// The LRU, singleflight, oversized, doomed-flight and churn behaviours of
// the response cache are checked once for every cache in internal/cache;
// what stays here is what this package adds: its key, its purge predicates,
// the not-stored rule, and the service-level wiring.

func newTestRespCache(maxBytes int64) *respCache {
	return newRespCache(maxBytes, telemetry.NewRegistry())
}

func rk(video string, seg int) Ref {
	return Ref{Video: video, Seg: seg, Kind: Orig}
}

func cached(data string) func() (Answer, error) {
	return func() (Answer, error) { return Answer{Status: 200, Body: []byte(data)}, nil }
}

// TestRefKindsDoNotAlias pins that the five payload kinds of one
// (video, segment) — and distinct clusters, tiles and rungs — are distinct
// cache entries.
func TestRefKindsDoNotAlias(t *testing.T) {
	c := newTestRespCache(1 << 20)
	keys := []Ref{
		{Video: "v", Seg: 1, Kind: Orig},
		{Video: "v", Seg: 1, Kind: FOV},
		{Video: "v", Seg: 1, Kind: FOVMeta},
		{Video: "v", Seg: 1, Kind: Tile},
		{Video: "v", Seg: 1, Kind: TileLow},
		{Video: "v", Seg: 1, A: 1, Kind: FOV},
		{Video: "v", Seg: 1, A: 1, Kind: Tile},
		{Video: "v", Seg: 1, A: 1, B: 1, Kind: Tile},
	}
	for i, key := range keys {
		c.Get(key, cached(fmt.Sprint(i)))
	}
	for i, key := range keys {
		a, _, _ := c.Get(key, func() (Answer, error) { t.Errorf("key %d %+v was evicted or aliased", i, key); return Answer{}, nil })
		if string(a.Body) != fmt.Sprint(i) {
			t.Errorf("key %d %+v serves %q", i, key, a.Body)
		}
	}
}

// TestRespPurgePredicates pins the two purge scopes: a video purge takes
// every kind and segment of that video and nothing else; a segment purge
// takes every kind of that one segment, and dooms only that segment's
// in-flight loads.
func TestRespPurgePredicates(t *testing.T) {
	c := newTestRespCache(1 << 20)
	fill := func() {
		for seg := 0; seg < 3; seg++ {
			c.Get(Ref{Video: "a", Seg: seg, Kind: Orig}, cached("abc"))
			c.Get(Ref{Video: "a", Seg: seg, A: 2, Kind: Tile}, cached("tile"))
			c.Get(rk("b", seg), cached("de"))
		}
	}
	resident := func(key Ref) bool {
		_, outcome, _ := c.Get(key, cached("reloaded"))
		return outcome != cache.Miss
	}

	fill()
	c.PurgeKeys(OfVideo("a"))
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 6 || st.Purged != 6 {
		t.Fatalf("after video purge: %+v", st)
	}
	for seg := 0; seg < 3; seg++ {
		if !resident(rk("b", seg)) {
			t.Errorf("video purge dropped another video's segment %d", seg)
		}
	}

	fill()
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	done := make(chan struct{}, 2)
	for _, seg := range []int{1, 2} {
		go func() {
			c.Get(Ref{Video: "a", Seg: seg, Kind: FOV}, func() (Answer, error) {
				started <- struct{}{}
				<-release
				return cached("in flight")()
			})
			done <- struct{}{}
		}()
	}
	<-started
	<-started
	c.PurgeKeys(OfSegment("a", 1))
	close(release)
	<-done
	<-done
	for _, tc := range []struct {
		key  Ref
		want bool
	}{
		{Ref{Video: "a", Seg: 1, Kind: Orig}, false},
		{Ref{Video: "a", Seg: 1, A: 2, Kind: Tile}, false},
		{Ref{Video: "a", Seg: 1, Kind: FOV}, false}, // doomed in flight
		{Ref{Video: "a", Seg: 2, Kind: FOV}, true},  // other segment's flight kept
		{Ref{Video: "a", Seg: 0, Kind: Orig}, true},
		{Ref{Video: "a", Seg: 2, A: 2, Kind: Tile}, true},
		{rk("b", 1), true},
	} {
		if got := resident(tc.key); got != tc.want {
			t.Errorf("after segment purge, %+v resident = %v, want %v", tc.key, got, tc.want)
		}
	}
	if st := c.Stats(); st.Doomed != 1 {
		t.Errorf("Doomed = %d, want 1", st.Doomed)
	}
}

// TestPayloadNotStoredSharedNotCached pins the negative-result rule at the
// service: a payload missing from the store is a 404 every time — never a
// cached one, so a later ingest is visible — and leaves nothing resident.
func TestPayloadNotStoredSharedNotCached(t *testing.T) {
	svc := fabricateService(t, DefaultServiceOptions())
	missing := Ref{Video: "V", Seg: 9, Kind: Orig}
	for i := 0; i < 2; i++ {
		if a := svc.payload(missing); a.Status != http.StatusNotFound {
			t.Fatal("missing payload reported ok")
		}
	}
	if st := svc.cache.Stats(); st.Misses != 2 || st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("negative result was cached or leaked: %+v", st)
	}
}

// TestRespCacheHitPathDoesNotAllocate guards serve_zipf's shard hit path
// for this package's instantiation of the core.
func TestRespCacheHitPathDoesNotAllocate(t *testing.T) {
	c := newTestRespCache(1 << 20)
	key := Ref{Video: "video", Seg: 3, A: 2, B: 1, Kind: Tile}
	load := cached("payload")
	c.Get(key, load)
	if n := testing.AllocsPerRun(200, func() { c.Get(key, load) }); n != 0 {
		t.Errorf("resident Ref Get allocates %v times per call, want 0", n)
	}
}

// TestServiceReingestDuringSlowLoad is the service-level interleave the
// issue pins: with StoreDelay widening the load window, a request that is
// mid-load when a re-ingest purges the video must not repopulate the cache
// afterward — the next request has to go back to the (fresh) store.
func TestServiceReingestDuringSlowLoad(t *testing.T) {
	opts := DefaultServiceOptions()
	opts.StoreDelay = 150 * time.Millisecond
	svc := fabricateService(t, opts)

	done := make(chan error, 1)
	go func() {
		if a := svc.payload(Ref{Video: "V", Seg: 0, Kind: Orig}); a.Status != http.StatusOK {
			done <- fmt.Errorf("in-flight request failed")
			return
		}
		done <- nil
	}()
	// Let the request enter its slow load, then republish the video the way
	// IngestVideo does: overwrite the store and purge the cache.
	time.Sleep(30 * time.Millisecond)
	fresh := segmentOf(t, &codec.Bitstream{Header: codec.Header{W: 16, H: 8, Quality: 4}, Frames: [][]byte{{9, 9, 9, 9}}, Types: []codec.FrameType{codec.IFrame}})
	if err := svc.store.Put(Ref{Video: "V", Kind: Orig, Seg: 0}.StoreKey(), fresh, nil); err != nil {
		t.Fatal(err)
	}
	svc.cache.PurgeKeys(OfVideo("V"))
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The doomed flight's payload must not be cached: this request has to
	// miss and read the republished store.
	missesBefore := svc.cache.Stats().Misses
	a := svc.payload(Ref{Video: "V", Seg: 0, Kind: Orig})
	if a.Status != http.StatusOK {
		t.Fatal("post-republish request failed")
	}
	if string(a.Body) != string(fresh) {
		t.Fatal("post-republish request served the pre-republish payload")
	}
	if got := svc.cache.Stats().Misses - missesBefore; got != 1 {
		t.Errorf("post-republish request hit the cache (misses delta %d, want 1): stale payload survived the purge", got)
	}
}

// TestNewRespCacheDisabled pins that a non-positive budget means no cache,
// and that the service serves straight from the store without one.
func TestNewRespCacheDisabled(t *testing.T) {
	if c := newTestRespCache(0); c != nil {
		t.Error("zero budget built a cache")
	}
	if c := newTestRespCache(-5); c != nil {
		t.Error("negative budget built a cache")
	}
	opts := DefaultServiceOptions()
	opts.RespCacheBytes = 0
	svc := fabricateService(t, opts)
	if a := svc.payload(rk("V", 0)); a.Status != http.StatusOK {
		t.Error("cacheless service failed to serve a stored payload")
	}
	if a := svc.payload(rk("V", 9)); a.Status != http.StatusNotFound {
		t.Error("cacheless service served a payload the store does not hold")
	}
	svc.Publish(svc.manifests["V"]) // purges must tolerate the absent cache
	if _, ok := svc.RespCacheStats(); ok {
		t.Error("RespCacheStats reports a cache that is disabled")
	}
}
