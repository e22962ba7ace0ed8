package server

import (
	"fmt"
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

func rk(video string, seg int) respKey {
	return respKey{video: video, seg: seg, kind: respOrig}
}

func cached(data string) func() ([]byte, error) {
	return func() ([]byte, error) { return []byte(data), nil }
}

// TestRespKeyKindsDoNotAlias pins that the five payload kinds of one
// (video, segment) — and distinct clusters, tiles and rungs — are distinct
// cache entries.
func TestRespKeyKindsDoNotAlias(t *testing.T) {
	c := newTestRespCache(1 << 20)
	keys := []respKey{
		{video: "v", seg: 1, kind: respOrig},
		{video: "v", seg: 1, kind: respFOV},
		{video: "v", seg: 1, kind: respFOVMeta},
		{video: "v", seg: 1, kind: respTile},
		{video: "v", seg: 1, kind: respTileLow},
		{video: "v", seg: 1, cluster: 1, kind: respFOV},
		{video: "v", seg: 1, tile: 1, kind: respTile},
		{video: "v", seg: 1, tile: 1, rung: 1, kind: respTile},
	}
	for i, key := range keys {
		c.Get(key, cached(fmt.Sprint(i)))
	}
	for i, key := range keys {
		data, _, _ := c.Get(key, func() ([]byte, error) { t.Errorf("key %d %+v was evicted or aliased", i, key); return nil, nil })
		if string(data) != fmt.Sprint(i) {
			t.Errorf("key %d %+v serves %q", i, key, data)
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
			c.Get(respKey{video: "a", seg: seg, kind: respOrig}, cached("abc"))
			c.Get(respKey{video: "a", seg: seg, tile: 2, kind: respTile}, cached("tile"))
			c.Get(rk("b", seg), cached("de"))
		}
	}
	resident := func(key respKey) bool {
		_, outcome, _ := c.Get(key, cached("reloaded"))
		return outcome != cache.Miss
	}

	fill()
	c.PurgeKeys(respOfVideo("a"))
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
			c.Get(respKey{video: "a", seg: seg, kind: respFOV}, func() ([]byte, error) {
				started <- struct{}{}
				<-release
				return []byte("in flight"), nil
			})
			done <- struct{}{}
		}()
	}
	<-started
	<-started
	c.PurgeKeys(respOfSegment("a", 1))
	close(release)
	<-done
	<-done
	for _, tc := range []struct {
		key  respKey
		want bool
	}{
		{respKey{video: "a", seg: 1, kind: respOrig}, false},
		{respKey{video: "a", seg: 1, tile: 2, kind: respTile}, false},
		{respKey{video: "a", seg: 1, kind: respFOV}, false}, // doomed in flight
		{respKey{video: "a", seg: 2, kind: respFOV}, true},  // other segment's flight kept
		{respKey{video: "a", seg: 0, kind: respOrig}, true},
		{respKey{video: "a", seg: 2, tile: 2, kind: respTile}, true},
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
	missing := respKey{video: "V", seg: 9, kind: respOrig}
	for i := 0; i < 2; i++ {
		if _, ok := svc.payload(missing); ok {
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
	key := respKey{video: "video", seg: 3, tile: 2, rung: 1, kind: respTile}
	load := cached("payload")
	c.Get(key, load)
	if n := testing.AllocsPerRun(200, func() { c.Get(key, load) }); n != 0 {
		t.Errorf("resident respKey Get allocates %v times per call, want 0", n)
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
		_, ok := svc.payload(respKey{video: "V", seg: 0, kind: respOrig})
		if !ok {
			done <- fmt.Errorf("in-flight request failed")
			return
		}
		done <- nil
	}()
	// Let the request enter its slow load, then republish the video the way
	// IngestVideo does: overwrite the store and purge the cache.
	time.Sleep(30 * time.Millisecond)
	fresh := marshalBitstream(&codec.Bitstream{W: 16, H: 8, Frames: [][]byte{{9, 9, 9, 9}}, Types: []codec.FrameType{codec.IFrame}})
	if err := svc.store.Put(origKey("V", 0), fresh, nil); err != nil {
		t.Fatal(err)
	}
	svc.cache.PurgeKeys(respOfVideo("V"))
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The doomed flight's payload must not be cached: this request has to
	// miss and read the republished store.
	missesBefore := svc.cache.Stats().Misses
	data, ok := svc.payload(respKey{video: "V", seg: 0, kind: respOrig})
	if !ok {
		t.Fatal("post-republish request failed")
	}
	if string(data) != string(fresh) {
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
	if _, ok := svc.payload(rk("V", 0)); !ok {
		t.Error("cacheless service failed to serve a stored payload")
	}
	if _, ok := svc.payload(rk("V", 9)); ok {
		t.Error("cacheless service served a payload the store does not hold")
	}
	svc.Publish(svc.manifests["V"]) // purges must tolerate the absent cache
	if _, ok := svc.RespCacheStats(); ok {
		t.Error("RespCacheStats reports a cache that is disabled")
	}
}
