// Package cache is the one cache core every hop of the serving path
// instantiates: a byte-budgeted strict-LRU of immutable values with
// singleflight loading. The shard response cache, the router's edge tier,
// the mapping-LUT table cache and the client's segment cache are all
// Cache[K, V] values that differ only in key, value, size function and
// metric names (DESIGN.md "cache core").
//
// One mutex guards the recency list, the resident map and the flight map;
// counters are bumped outside it. Safe for concurrent use. The nil *Cache is
// valid and caches nothing: Get runs load, every other method is inert.
package cache

import (
	"errors"
	"sync"

	"evr/internal/telemetry"
)

// ErrLoadPanicked is what the waiters of a flight receive when the load they
// joined panicked: the panic itself propagates to the loader's caller.
var ErrLoadPanicked = errors.New("cache: the load this request joined panicked")

// Outcome says how a Get was answered.
type Outcome uint8

const (
	Miss      Outcome = iota // this call ran load
	Hit                      // served from a resident entry
	Coalesced                // joined another caller's in-flight load
)

// Stats is a point-in-time view of a cache.
type Stats struct {
	Hits      int64 `json:"hits"`      // lookups served from a resident entry
	Misses    int64 `json:"misses"`    // lookups that ran a load (one per flight)
	Coalesced int64 `json:"coalesced"` // lookups that joined an in-flight identical load
	Evictions int64 `json:"evictions"` // entries dropped to stay under the byte budget
	Oversized int64 `json:"oversized"` // values larger than the whole budget (served, never cached)
	Doomed    int64 `json:"doomed"`    // in-flight loads overtaken by a purge (served, never cached)
	Purged    int64 `json:"purged"`    // resident entries dropped by purges
	Entries   int64 `json:"entries"`   // resident entries
	Bytes     int64 `json:"bytes"`     // resident bytes, as the size function counts them
	MaxBytes  int64 `json:"maxBytes"`  // configured budget
}

// HitRate returns the hit fraction over all lookups so far (0 before any).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Help carries the Prometheus HELP text of a cache's series; the wording
// belongs to the instantiating package.
type Help struct {
	Hits, Misses, Coalesced, Evictions, Oversized, Doomed, Purged, Entries, Bytes string
}

// entry is one resident value, linked into the recency ring.
type entry[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *entry[K, V]
}

// flight is one in-flight load that concurrent identical Gets share. val and
// err are written by the loader before done is closed; doomed is guarded by
// Cache.mu.
type flight[V any] struct {
	done   chan struct{}
	val    V
	err    error
	doomed bool
}

// Cache is a byte-budgeted LRU with singleflight Get. Values are shared by
// every caller that receives them and must not be mutated in a way those
// callers can observe.
type Cache[K comparable, V any] struct {
	sizeOf func(V) int64

	hits, misses, coalesced, evictions, oversized, doomed, purged *telemetry.Counter
	entriesG, bytesG                                              *telemetry.Gauge

	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	root     entry[K, V] // ring sentinel: root.next is most, root.prev least recently used
	items    map[K]*entry[K, V]
	flights  map[K]*flight[V]
}

// New builds a cache holding at most maxBytes, as sizeOf counts each value
// (a constant 1 makes the budget an entry count). A budget ≤ 0 retains
// nothing but still coalesces concurrent identical loads. The series are
// registered on reg as prefix+"_hits_total", "_misses_total",
// "_coalesced_total", "_evictions_total", "_oversized_total",
// "_doomed_total", "_purged_total", "_entries" and "_bytes"; a nil reg keeps
// the counters private to Stats.
func New[K comparable, V any](maxBytes int64, sizeOf func(V) int64, reg *telemetry.Registry, prefix string, help Help) *Cache[K, V] {
	counter := func(suffix, text string) *telemetry.Counter {
		reg.SetHelp(prefix+suffix, text)
		if c := reg.Counter(prefix + suffix); c != nil {
			return c
		}
		return &telemetry.Counter{}
	}
	gauge := func(suffix, text string) *telemetry.Gauge {
		reg.SetHelp(prefix+suffix, text)
		return reg.Gauge(prefix + suffix)
	}
	c := &Cache[K, V]{
		sizeOf:    sizeOf,
		hits:      counter("_hits_total", help.Hits),
		misses:    counter("_misses_total", help.Misses),
		coalesced: counter("_coalesced_total", help.Coalesced),
		evictions: counter("_evictions_total", help.Evictions),
		oversized: counter("_oversized_total", help.Oversized),
		doomed:    counter("_doomed_total", help.Doomed),
		purged:    counter("_purged_total", help.Purged),
		entriesG:  gauge("_entries", help.Entries),
		bytesG:    gauge("_bytes", help.Bytes),
		maxBytes:  maxBytes,
		items:     make(map[K]*entry[K, V]),
		flights:   make(map[K]*flight[V]),
	}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value for key: the resident one when there is one,
// otherwise the result of load, run exactly once per concurrent wave — the
// first miss runs it, every concurrent identical Get waits for that flight
// and receives the same (value, error). A load that returns an error is
// shared with its waiters but never retained, so the next Get retries; a
// caller that wants a value handed to its waiters without being cached
// returns it beside a non-nil error. A successful load is retained unless it
// is larger than the whole budget or a Purge overtook the flight.
//
// If load panics the flight is still released: its waiters receive the zero
// value and ErrLoadPanicked, later Gets load afresh, and the panic
// continues up the loader's stack.
func (c *Cache[K, V]) Get(key K, load func() (V, error)) (V, Outcome, error) {
	if c == nil {
		v, err := load()
		return v, Miss, err
	}
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		c.touchLocked(e)
		v := e.val
		c.mu.Unlock()
		c.hits.Inc()
		return v, Hit, nil
	}
	if fl, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.coalesced.Inc()
		<-fl.done
		return fl.val, Coalesced, fl.err
	}
	fl := &flight[V]{done: make(chan struct{}), err: ErrLoadPanicked}
	c.flights[key] = fl
	c.mu.Unlock()
	c.misses.Inc()

	defer c.land(key, fl)
	v, err := load()
	fl.val, fl.err = v, err
	return v, Miss, err
}

// land retires a flight: a successful, un-doomed result becomes resident,
// then the waiters are released.
func (c *Cache[K, V]) land(key K, fl *flight[V]) {
	var size int64
	if fl.err == nil {
		size = c.sizeOf(fl.val)
	}
	c.mu.Lock()
	delete(c.flights, key)
	switch {
	case fl.doomed:
		c.doomed.Inc()
	case fl.err == nil:
		c.insertLocked(key, fl.val, size)
	}
	c.mu.Unlock()
	close(fl.done)
}

// Contains reports whether key is resident, without promoting it or
// counting a lookup.
func (c *Cache[K, V]) Contains(key K) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Purge drops every resident entry resident matches and dooms every
// in-flight load whose key inflight matches: a flight that began before the
// purge cannot prove it read what the purge made visible, so its result is
// served to the waiters it already has and never retained. When Purge
// returns no matching entry is resident. Both predicates run under the
// cache lock — they must not block or call back into the cache.
func (c *Cache[K, V]) Purge(resident func(K, V) bool, inflight func(K) bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var dropped int64
	for e := c.root.next; e != &c.root; {
		next := e.next
		if resident(e.key, e.val) {
			c.removeLocked(e)
			dropped++
		}
		e = next
	}
	for key, fl := range c.flights {
		if inflight(key) {
			fl.doomed = true
		}
	}
	c.purged.Add(dropped)
	c.publishLocked()
}

// PurgeKeys is Purge with one predicate over resident and in-flight keys.
func (c *Cache[K, V]) PurgeKeys(match func(K) bool) {
	c.Purge(func(k K, _ V) bool { return match(k) }, match)
}

// Stats snapshots the cache. The nil cache reports zeros.
func (c *Cache[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	entries, bytes := int64(len(c.items)), c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Coalesced: c.coalesced.Value(),
		Evictions: c.evictions.Value(),
		Oversized: c.oversized.Value(),
		Doomed:    c.doomed.Value(),
		Purged:    c.purged.Value(),
		Entries:   entries,
		Bytes:     bytes,
		MaxBytes:  c.maxBytes,
	}
}

// insertLocked makes v (of the given size) resident and evicts from the cold end past the
// budget. A value larger than the whole budget is counted and skipped:
// inserting it would evict every resident and still bust the budget, and the
// counter keeps an undersized budget from masquerading as a 0 % hit rate.
func (c *Cache[K, V]) insertLocked(key K, v V, size int64) {
	if size > c.maxBytes {
		c.oversized.Inc()
		return
	}
	if e, ok := c.items[key]; ok {
		c.bytes += size - e.size
		e.val, e.size = v, size
		c.touchLocked(e)
	} else {
		e := &entry[K, V]{key: key, val: v, size: size}
		c.items[key] = e
		c.linkFrontLocked(e)
		c.bytes += size
	}
	for c.bytes > c.maxBytes {
		c.removeLocked(c.root.prev)
		c.evictions.Inc()
	}
	c.publishLocked()
}

func (c *Cache[K, V]) linkFrontLocked(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache[K, V]) touchLocked(e *entry[K, V]) {
	if c.root.next == e {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	c.linkFrontLocked(e)
}

func (c *Cache[K, V]) removeLocked(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	delete(c.items, e.key)
	c.bytes -= e.size
}

func (c *Cache[K, V]) publishLocked() {
	c.entriesG.Set(int64(len(c.items)))
	c.bytesG.Set(c.bytes)
}
