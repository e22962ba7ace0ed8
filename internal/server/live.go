package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"evr/internal/pt"
	"evr/internal/scene"
	"evr/internal/store"
)

// PublishedAtHeader carries a live segment's publish timestamp (unix
// nanoseconds) on successful responses. The value is immutable per publish
// — a republish purges every cache layer first — so edge caches may store
// it with the payload. Clients derive time-behind-live from it.
const PublishedAtHeader = "X-EVR-Published-At-Ns"

// Clock abstracts wall time for the live publisher so tests and the chaos
// harness can drive the schedule deterministically.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// WallClock returns the real-time clock.
func WallClock() Clock { return wallClock{} }

// VirtualClock is a manually advanced clock for deterministic live tests:
// time moves only on Advance, which fires every timer that comes due.
type VirtualClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []vcWaiter
}

type vcWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewVirtualClock starts a virtual clock at origin.
func NewVirtualClock(origin time.Time) *VirtualClock {
	return &VirtualClock{now: origin}
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that fires once the clock has advanced past
// now+d. A non-positive d fires immediately.
func (c *VirtualClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, vcWaiter{at: c.now.Add(d), ch: ch})
	return ch
}

// Advance moves the clock forward by d, firing every due timer.
func (c *VirtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	keep := c.waiters[:0]
	var fire []vcWaiter
	for _, w := range c.waiters {
		if w.at.After(now) {
			keep = append(keep, w)
		} else {
			fire = append(fire, w)
		}
	}
	c.waiters = keep
	c.mu.Unlock()
	for _, w := range fire {
		w.ch <- now
	}
}

// LiveOptions configures the live ingest pipeline (IngestConfig.Live).
type LiveOptions struct {
	// SegmentInterval is the publish cadence. 0 = real time: the content
	// duration of one segment (SegmentFrames / FPS).
	SegmentInterval time.Duration
	// QueueDepth bounds the producer→publisher pipeline: beside the
	// segment the publisher holds for its slot, at most this many more are
	// rendered or encoded ahead of the edge, so a slow publisher
	// backpressures the renderer instead of buffering the whole stream.
	// 0 = 2.
	QueueDepth int
	// Clock drives the publish schedule. nil = wall clock.
	Clock Clock
}

// Validate rejects non-physical live options. A nil receiver (live mode
// off) is valid.
func (o *LiveOptions) Validate() error {
	if o == nil {
		return nil
	}
	if o.SegmentInterval < 0 {
		return fmt.Errorf("server: live SegmentInterval %v must be ≥ 0", o.SegmentInterval)
	}
	if o.QueueDepth < 0 {
		return fmt.Errorf("server: live QueueDepth %d must be ≥ 0", o.QueueDepth)
	}
	return nil
}

// queueDepth resolves QueueDepth to its effective value.
func (o *LiveOptions) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 2
}

// liveSegment is one encoded-but-unpublished segment in the pipeline queue.
type liveSegment struct {
	si      int
	payload []byte
}

// LiveStream runs the live ingest pipeline for one video: a producer
// renders and encodes original segments — byte-identical to a VOD ingest
// of the same spec — into a bounded queue, and a publisher commits each to
// the store and advances the live edge on the clock schedule. Services the
// stream is attached to (Service.ServeLive) serve its manifest, answer
// requests at or past the edge with 425 + Retry-After, stamp live
// responses with PublishedAtHeader, and purge caches on each publish.
type LiveStream struct {
	spec     scene.VideoSpec
	raster   *scene.Raster // the spec's pixel grid, mapped once
	cfg      IngestConfig
	st       *store.Store
	clock    Clock
	interval time.Duration
	total    int
	nSegs    int

	man       atomic.Pointer[Manifest]
	edge      atomic.Int64
	prepared  atomic.Int64   // segments encoded; ≤ edge + QueueDepth + 1 (one credit each)
	stalls    atomic.Int64   // times the producer had to wait for a credit
	published []atomic.Int64 // unix nanos per segment; 0 = unpublished
	startNs   atomic.Int64

	mu        sync.Mutex
	onPublish []func(seg int)
	hold      map[int]int // fault injection: extra intervals before a publish
	err       error

	started atomic.Bool
	done    chan struct{}
}

// NewLiveStream validates the config and builds a stream without starting
// it. cfg.Live may be nil (defaults apply); LiveMode is implied.
func NewLiveStream(v scene.VideoSpec, cfg IngestConfig, st *store.Store) (*LiveStream, error) {
	cfg.LiveMode = true
	if cfg.Live == nil {
		cfg.Live = &LiveOptions{}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clock := cfg.Live.Clock
	if clock == nil {
		clock = WallClock()
	}
	interval := cfg.Live.SegmentInterval
	if interval == 0 {
		interval = time.Duration(float64(cfg.SAS.SegmentFrames) / float64(v.FPS) * float64(time.Second))
	}
	total, nSegs := segmentSpan(v, cfg)
	if nSegs < 1 {
		return nil, fmt.Errorf("server: live stream of %s has no segments", v.Name)
	}
	ls := &LiveStream{
		spec:      v,
		raster:    v.Raster(cfg.Projection, cfg.FullW, cfg.FullH),
		cfg:       cfg,
		st:        st,
		clock:     clock,
		interval:  interval,
		total:     total,
		nSegs:     nSegs,
		published: make([]atomic.Int64, nSegs),
		hold:      make(map[int]int),
		done:      make(chan struct{}),
	}
	// The initial manifest advertises every segment slot (so players can
	// plan the whole session) with zero OrigBytes below the edge.
	man := baseManifest(v, cfg)
	man.Live = true
	for si := 0; si < nSegs; si++ {
		_, frames := segmentSize(cfg, total, si)
		man.Segments = append(man.Segments, SegmentInfo{Index: si, Frames: frames})
	}
	ls.man.Store(man)
	return ls, nil
}

// Video returns the stream's video name.
func (ls *LiveStream) Video() string { return ls.spec.Name }

// Manifest returns the current manifest snapshot (copy-on-write per
// publish; safe to share).
func (ls *LiveStream) Manifest() *Manifest { return ls.man.Load() }

// Edge returns the live edge: segments < Edge() are published.
func (ls *LiveStream) Edge() int { return int(ls.edge.Load()) }

// Segments returns the total segment count of the stream.
func (ls *LiveStream) Segments() int { return ls.nSegs }

// Clock returns the clock driving the schedule.
func (ls *LiveStream) Clock() Clock { return ls.clock }

// PublishedAtNs returns the publish timestamp of a segment in unix
// nanoseconds, or false while it is still ahead of the edge.
func (ls *LiveStream) PublishedAtNs(seg int) (int64, bool) {
	if seg < 0 || seg >= ls.nSegs {
		return 0, false
	}
	ns := ls.published[seg].Load()
	return ns, ns != 0
}

// OnPublish registers a hook called after each segment publish is visible
// (store committed, manifest swapped, edge advanced). Services use it to
// purge response and edge caches.
func (ls *LiveStream) OnPublish(fn func(seg int)) {
	ls.mu.Lock()
	ls.onPublish = append(ls.onPublish, fn)
	ls.mu.Unlock()
}

// DelayPublish holds segment seg back by extra publish intervals — the
// chaos harness's dropped-publish fault. Call before the segment comes due.
func (ls *LiveStream) DelayPublish(seg, intervals int) {
	ls.mu.Lock()
	ls.hold[seg] += intervals
	ls.mu.Unlock()
}

// dueTime returns when segment seg is scheduled to publish. Only
// meaningful after Start.
func (ls *LiveStream) dueTime(seg int) time.Time {
	ls.mu.Lock()
	hold := ls.hold[seg]
	ls.mu.Unlock()
	start := time.Unix(0, ls.startNs.Load())
	return start.Add(time.Duration(seg+1+hold) * ls.interval)
}

// RetryAfterSeconds returns the whole seconds until segment seg's
// scheduled publish, rounded up, or 0 when it is imminent (< 1 s, clients
// should use their own backoff) or the schedule is unknown.
func (ls *LiveStream) RetryAfterSeconds(seg int) int {
	if !ls.started.Load() || seg < 0 || seg >= ls.nSegs {
		return 0
	}
	rem := ls.dueTime(seg).Sub(ls.clock.Now())
	if rem < time.Second {
		return 0
	}
	return int((rem + time.Second - 1) / time.Second)
}

// Start launches the producer and publisher. The stream runs to completion
// (or first error); Wait blocks for it.
func (ls *LiveStream) Start() error {
	if ls.started.Swap(true) {
		return fmt.Errorf("server: live stream %s already started", ls.spec.Name)
	}
	ls.startNs.Store(ls.clock.Now().UnixNano())
	// One credit per segment between "render started" and "published".
	// The queue is as large, so a producer holding a credit never blocks
	// on the send.
	credits := make(chan struct{}, ls.cfg.Live.queueDepth()+1)
	queue := make(chan liveSegment, cap(credits))
	go ls.producer(queue, credits)
	go ls.publisher(queue, credits)
	return nil
}

// producer renders and encodes segments in order. It takes a credit before
// it starts on a segment, so when the publisher falls behind it waits
// without holding (or working on) more than the credits allow.
func (ls *LiveStream) producer(queue chan<- liveSegment, credits chan<- struct{}) {
	defer close(queue)
	for si := 0; si < ls.nSegs; si++ {
		select {
		case credits <- struct{}{}:
		default:
			ls.stalls.Add(1)
			credits <- struct{}{}
		}
		start, frames := segmentSize(ls.cfg, ls.total, si)
		full := renderSegmentFrames(ls.raster, ls.spec.FPS, start, frames, pt.DefaultWorkers())
		payload, err := encodeOrigPayload(ls.spec, ls.cfg, si, full)
		if err != nil {
			ls.fail(err)
			return
		}
		ls.prepared.Add(1)
		queue <- liveSegment{si: si, payload: payload}
	}
}

// publisher commits each queued segment at its scheduled time: store write
// first, then publish timestamp, manifest swap, edge advance, and the
// purge hooks — so a request admitted after the edge moves always finds
// the payload.
func (ls *LiveStream) publisher(queue <-chan liveSegment, credits <-chan struct{}) {
	defer close(ls.done)
	for item := range queue {
		for {
			// Re-evaluate the due time each wake-up: DelayPublish may have
			// pushed it out while we slept.
			due := ls.dueTime(item.si)
			now := ls.clock.Now()
			if !now.Before(due) {
				break
			}
			<-ls.clock.After(due.Sub(now))
		}
		if err := ls.st.Put(Ref{Video: ls.spec.Name, Kind: Orig, Seg: item.si}.StoreKey(), item.payload, nil); err != nil {
			ls.fail(err)
			// Keep returning credits so the producer never blocks on a
			// dead publisher.
			<-credits
			for range queue {
				<-credits
			}
			return
		}
		now := ls.clock.Now()
		ls.published[item.si].Store(now.UnixNano())
		old := ls.man.Load()
		man := *old
		man.Segments = append([]SegmentInfo(nil), old.Segments...)
		man.Segments[item.si].OrigBytes = len(item.payload)
		man.LiveEdge = item.si + 1
		ls.man.Store(&man)
		ls.edge.Store(int64(item.si + 1))
		<-credits
		ls.mu.Lock()
		hooks := make([]func(int), len(ls.onPublish))
		copy(hooks, ls.onPublish)
		ls.mu.Unlock()
		for _, fn := range hooks {
			fn(item.si)
		}
	}
}

// fail records the stream's first error.
func (ls *LiveStream) fail(err error) {
	ls.mu.Lock()
	if ls.err == nil {
		ls.err = err
	}
	ls.mu.Unlock()
}

// Done is closed once the publisher has drained the pipeline (all segments
// published, or the stream failed).
func (ls *LiveStream) Done() <-chan struct{} { return ls.done }

// Wait blocks until the stream finishes and returns its first error.
func (ls *LiveStream) Wait() error {
	<-ls.done
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.err
}
