package netsim

// Timeline is the incremental buffer/stall model of segmented playback: a
// downloader fetching segments back to back over a link, and a playback
// clock that starts once StartupSegments have landed and pauses — a stall —
// whenever it catches up with the download. It is advanced one segment at a
// time, so a rate controller (abr.Simulate, the tiled Player) can consult the
// live buffer level between fetch decisions. Session.Run is the batch model
// with a buffer cap and per-stall records; this one has neither.
type Timeline struct {
	Link            Link
	SegmentDuration float64
	// StartupSegments is how many segments must land before playback starts.
	// 0 means 1 (fast start).
	StartupSegments int

	clock        float64 // downloader wall clock
	playWall     float64 // wall time playback started (valid once started)
	started      bool
	landed       int     // segments downloaded
	contentReady float64 // seconds of content downloaded

	Stalls       int
	StallSec     float64
	StartupDelay float64
	Bytes        int64
}

// Started reports whether playback has begun.
func (t *Timeline) Started() bool { return t.started }

// Buffer returns the seconds of downloaded content not yet played.
func (t *Timeline) Buffer() float64 {
	if !t.started {
		return t.contentReady
	}
	played := t.clock - t.playWall
	if played > t.contentReady {
		played = t.contentReady
	}
	if played < 0 {
		played = 0
	}
	return t.contentReady - played
}

// Advance accounts for one segment of the given wire size landing: the
// clock moves by the modeled transfer time, one segment duration of
// content becomes ready, and any stall shifts the playback reference.
func (t *Timeline) Advance(bytes int64) {
	t.Bytes += bytes
	t.clock += t.Link.TransferSeconds(bytes)
	t.contentReady += t.SegmentDuration
	t.landed++

	if !t.started {
		if t.landed >= t.StartupSegments {
			t.started = true
			t.playWall = t.clock
			t.StartupDelay = t.clock
		}
		return
	}
	played := t.clock - t.playWall
	avail := t.contentReady - t.SegmentDuration // before this segment landed
	if played > avail {
		d := played - avail
		t.Stalls++
		t.StallSec += d
		t.playWall += d
	}
}
