package telemetry

import (
	"sync"
	"time"
)

// Stage is one step of the per-frame playback pipeline the paper's energy
// argument decomposes (fetch → decode → FOV check → render → display).
type Stage uint8

const (
	// StageFetch is network transfer (manifest, FOV video, original segment).
	StageFetch Stage = iota
	// StageDecode is bitstream unmarshal + video decode.
	StageDecode
	// StageFOVCheck is the per-frame gaze-vs-metadata hit test (§5.3).
	StageFOVCheck
	// StageRender is projective-transform rendering of fallback frames
	// (PTE accelerator or reference float pipeline).
	StageRender
	// StageDisplay is the display processor's rotation warp of a FOV hit
	// onto the viewport (display.Warp).
	StageDisplay
	// NumStages is the number of pipeline stages.
	NumStages
)

// String names the stage for reports and metric labels.
func (s Stage) String() string {
	switch s {
	case StageFetch:
		return "fetch"
	case StageDecode:
		return "decode"
	case StageFOVCheck:
		return "fovcheck"
	case StageRender:
		return "render"
	case StageDisplay:
		return "display"
	default:
		return "unknown"
	}
}

// FrameTrace is the recorded timing of one displayed frame.
type FrameTrace struct {
	Segment int
	Frame   int
	Hit     bool
	Stages  [NumStages]time.Duration
}

// Tracer aggregates pipeline-stage timings: a histogram per stage plus a
// bounded ring of recent per-frame traces. Stage observations may come
// from frame spans (StartFrame) or directly (Observe — used by layers that
// work at segment granularity, like the fetch/decode path, including its
// background prefetch goroutines). Safe for concurrent use.
//
// The nil Tracer is valid and free: StartFrame returns a nil span whose
// methods all return immediately without reading the clock, so a disabled
// pipeline pays a few nil tests per frame and nothing else.
type Tracer struct {
	hists [NumStages]*Histogram

	mu     sync.Mutex
	ring   []FrameTrace
	next   int
	filled bool

	frames *Counter
	hits   *Counter
}

// DefaultRingSize is the per-frame trace ring capacity when NewTracer is
// given recent <= 0.
const DefaultRingSize = 4096

// NewTracer returns a tracer keeping the last `recent` frame traces
// (<= 0 uses DefaultRingSize).
func NewTracer(recent int) *Tracer {
	if recent <= 0 {
		recent = DefaultRingSize
	}
	t := &Tracer{ring: make([]FrameTrace, 0, recent), frames: &Counter{}, hits: &Counter{}}
	for i := range t.hists {
		t.hists[i] = NewHistogram(DefaultStageBuckets())
	}
	return t
}

// Observe records one direct stage timing, outside any frame span.
func (t *Tracer) Observe(st Stage, d time.Duration) {
	if t == nil || st >= NumStages {
		return
	}
	t.hists[st].ObserveDuration(d)
}

// StartTimer starts timing a stage; call Stop on the result. On a nil
// Tracer it returns the zero Timer without reading the clock.
func (t *Tracer) StartTimer(st Stage) Timer {
	if t == nil {
		return Timer{}
	}
	return Timer{t: t, st: st, t0: time.Now()}
}

// Timer is one in-progress direct stage observation.
type Timer struct {
	t  *Tracer
	st Stage
	t0 time.Time
}

// Stop records the elapsed time (no-op for the zero Timer).
func (tm Timer) Stop() {
	if tm.t == nil {
		return
	}
	tm.t.Observe(tm.st, time.Since(tm.t0))
}

// StartFrame opens a span for one displayed frame. Returns nil on a nil
// Tracer; all FrameSpan methods tolerate the nil span.
func (t *Tracer) StartFrame(segment, frame int) *FrameSpan {
	if t == nil {
		return nil
	}
	return &FrameSpan{t: t, rec: FrameTrace{Segment: segment, Frame: frame}}
}

// FrameSpan accumulates stage timings for one frame. It is owned by one
// goroutine (the playback loop) until Finish publishes it to the tracer.
type FrameSpan struct {
	t       *Tracer
	rec     FrameTrace
	started [NumStages]time.Time
}

// Start marks a stage begin.
func (s *FrameSpan) Start(st Stage) {
	if s == nil || st >= NumStages {
		return
	}
	s.started[st] = time.Now()
}

// Stop closes a started stage, accumulating its elapsed time. Stop without
// a matching Start is ignored.
func (s *FrameSpan) Stop(st Stage) {
	if s == nil || st >= NumStages || s.started[st].IsZero() {
		return
	}
	s.rec.Stages[st] += time.Since(s.started[st])
	s.started[st] = time.Time{}
}

// SetHit marks whether the frame was a FOV hit.
func (s *FrameSpan) SetHit(hit bool) {
	if s == nil {
		return
	}
	s.rec.Hit = hit
}

// Finish publishes the span: per-stage histograms (only stages that ran)
// and the recent-frames ring.
func (s *FrameSpan) Finish() {
	if s == nil {
		return
	}
	t := s.t
	t.frames.Inc()
	if s.rec.Hit {
		t.hits.Inc()
	}
	for st, d := range s.rec.Stages {
		if d > 0 {
			t.hists[st].ObserveDuration(d)
		}
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s.rec)
	} else if cap(t.ring) > 0 {
		t.ring[t.next] = s.rec
		t.next = (t.next + 1) % cap(t.ring)
		t.filled = true
	}
	t.mu.Unlock()
}

// Frames returns the number of finished frame spans.
func (t *Tracer) Frames() int64 { return t.frameCounter().Value() }

// Hits returns the number of finished spans marked as FOV hits.
func (t *Tracer) Hits() int64 {
	if t == nil {
		return 0
	}
	return t.hits.Value()
}

func (t *Tracer) frameCounter() *Counter {
	if t == nil {
		return nil
	}
	return t.frames
}

// Recent returns up to n of the most recently finished frame traces,
// oldest first (n <= 0 returns all retained).
func (t *Tracer) Recent(n int) []FrameTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []FrameTrace
	if t.filled {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// StageSummary is the aggregate report for one pipeline stage.
type StageSummary struct {
	Stage string
	Count int64
	Total time.Duration
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Summary reports every stage with at least one observation, in pipeline
// order. A nil Tracer reports nil.
func (t *Tracer) Summary() []StageSummary {
	if t == nil {
		return nil
	}
	var out []StageSummary
	for st := Stage(0); st < NumStages; st++ {
		s := t.hists[st].Snapshot()
		if s.Count == 0 {
			continue
		}
		sum := StageSummary{
			Stage: st.String(),
			Count: s.Count,
			Total: secondsToDuration(s.Sum),
			Mean:  secondsToDuration(s.Sum / float64(s.Count)),
			P50:   secondsToDuration(s.Quantile(0.50)),
			P95:   secondsToDuration(s.Quantile(0.95)),
			P99:   secondsToDuration(s.Quantile(0.99)),
			Max:   secondsToDuration(s.Max),
		}
		out = append(out, sum)
	}
	return out
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
