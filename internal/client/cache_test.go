package client

import (
	"testing"
	"time"

	"evr/internal/codec"
	"evr/internal/server"
)

// LRU order, eviction accounting and singleflight are checked once for every
// cache in internal/cache; these tests keep what the client adds — a budget
// counted in segments and the prefetch flag on the shared entry.

func ckey(seg, cluster int) server.Ref {
	return server.Ref{Video: "v", Kind: server.FOV, Seg: seg, A: cluster}
}

// loadEntry is a segment load that needs no network.
func loadEntry() (*segmentEntry, error) {
	return &segmentEntry{bits: &codec.Bitstream{Header: codec.Header{W: 8, H: 8, Quality: 4}, Frames: [][]byte{nil}, Types: []codec.FrameType{codec.IFrame}}}, nil
}

func cacheFetcher(t *testing.T, segments int) *Fetcher {
	f := NewFetcher(FetchConfig{CacheSegments: segments, Prefetch: true}, nil)
	t.Cleanup(f.Close)
	return f
}

func demand(t *testing.T, f *Fetcher, key server.Ref) {
	t.Helper()
	if bits, _, err := f.segment(key, false, loadEntry); err != nil || len(bits.Frames) != 1 {
		t.Fatalf("demand %+v: %v, %v", key, bits, err)
	}
}

func TestSegmentCacheCountsSegments(t *testing.T) {
	f := cacheFetcher(t, 2)
	demand(t, f, ckey(0, 0))
	demand(t, f, ckey(1, 0))
	demand(t, f, ckey(0, 0)) // touch 0 so 1 is the LRU victim
	demand(t, f, ckey(2, 0))
	for key, want := range map[server.Ref]bool{ckey(0, 0): true, ckey(1, 0): false, ckey(2, 0): true} {
		if got := f.cache.Contains(key); got != want {
			t.Errorf("%+v cached = %v, want %v", key, got, want)
		}
	}
	if c := f.Counters(); c.Evictions != 1 || c.CacheHits != 1 {
		t.Errorf("Evictions = %d, CacheHits = %d; want 1 and 1", c.Evictions, c.CacheHits)
	}
	if st := f.cache.Stats(); st.Entries != 2 || st.Bytes != 2 {
		t.Errorf("two cached segments must weigh 2: %+v", st)
	}
}

func TestPrefetchFlagConsumedOnce(t *testing.T) {
	f := cacheFetcher(t, 4)
	f.segment(ckey(0, 0), true, loadEntry) //nolint:errcheck // loadEntry never fails
	demand(t, f, ckey(1, 0))

	// A second prefetch of the resident segment must neither load, nor
	// consume the flag, nor promote the entry.
	f.segment(ckey(0, 0), true, func() (*segmentEntry, error) { //nolint:errcheck
		t.Error("prefetch of a resident segment ran its load")
		return loadEntry()
	})
	if c := f.Counters(); c.CacheHits != 0 || c.PrefetchHits != 0 {
		t.Fatalf("prefetching counted as demand: %+v", c)
	}
	demand(t, f, ckey(0, 0))
	if c := f.Counters(); c.CacheHits != 1 || c.PrefetchHits != 1 {
		t.Fatalf("first demand hit on a prefetched segment: CacheHits %d PrefetchHits %d, want 1/1", c.CacheHits, c.PrefetchHits)
	}
	demand(t, f, ckey(0, 0))
	if c := f.Counters(); c.CacheHits != 2 || c.PrefetchHits != 1 {
		t.Fatalf("second demand hit re-counted the prefetch: CacheHits %d PrefetchHits %d, want 2/1", c.CacheHits, c.PrefetchHits)
	}
}

func TestLatePrefetchKeepsDemandStatus(t *testing.T) {
	f := cacheFetcher(t, 4)
	demand(t, f, ckey(0, 0))               // demand insert
	f.segment(ckey(0, 0), true, loadEntry) //nolint:errcheck // late prefetch must not re-arm the flag
	demand(t, f, ckey(0, 0))
	if c := f.Counters(); c.PrefetchHits != 0 {
		t.Error("late prefetch re-armed the PrefetchHit flag")
	}
}

// TestDemandJoiningPrefetchClaimsItOnce pins the flag across the flight: two
// demand requests that join a prefetch still downloading are both cache
// hits, and exactly one of them is the prefetch hit.
func TestDemandJoiningPrefetchClaimsItOnce(t *testing.T) {
	f := cacheFetcher(t, 4)
	started, release := make(chan struct{}), make(chan struct{})
	f.prefetchSegment(ckey(0, 0), func() (*segmentEntry, error) {
		close(started)
		<-release
		return loadEntry()
	})
	<-started
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			if bits, _, err := f.segment(ckey(0, 0), false, loadEntry); err != nil || len(bits.Frames) != 1 {
				t.Errorf("joined demand: %v, %v", bits, err)
			}
			done <- struct{}{}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); f.cache.Stats().Coalesced != 2; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("demand requests never joined the prefetch")
		}
	}
	close(release)
	<-done
	<-done
	f.Wait()
	if c := f.Counters(); c.CacheHits != 2 || c.PrefetchHits != 1 || c.PrefetchIssued != 1 {
		t.Errorf("CacheHits %d PrefetchHits %d PrefetchIssued %d, want 2/1/1", c.CacheHits, c.PrefetchHits, c.PrefetchIssued)
	}
}

func TestZeroCapacityCachesNothing(t *testing.T) {
	f := cacheFetcher(t, 0)
	demand(t, f, ckey(0, 0))
	demand(t, f, ckey(0, 0))
	f.Prefetch("http://unused.invalid", server.Ref{Video: "v", Kind: server.Orig}) // no cache to park in: must not start
	f.Wait()
	if c := f.Counters(); c.CacheHits != 0 || c.Evictions != 0 || c.PrefetchIssued != 0 {
		t.Errorf("capacity-0 cache not inert: %+v", c)
	}
	if f.cache.Contains(ckey(0, 0)) {
		t.Error("capacity-0 cache retained a segment")
	}
}
