package netsim

// Timeline is the buffer/stall model of segmented playback: a downloader
// fetching segments back to back over a link, and a playback clock that
// starts once StartupSegments have landed (a shorter session never starts:
// it reads StartupDelay 0, MeanBufferLead 0 and Started false) and pauses —
// a stall — whenever it catches up with the download. It is advanced one
// segment at a time, so a rate controller (experiments.ABRTable, the tiled
// Player) can consult the live buffer level between fetch decisions.
type Timeline struct {
	Link            Link
	SegmentDuration float64
	// StartupSegments is how many segments must land before playback starts.
	// 0 means 1 (fast start).
	StartupSegments int
	// BufferCapSegments caps how far the downloader runs ahead of playback:
	// once playback runs, segment i starts downloading only after segment
	// i−cap has finished playing. 0 means uncapped.
	BufferCapSegments int

	clock        float64 // downloader wall clock
	playWall     float64 // wall time playback started, shifted by stalls (valid once started)
	started      bool
	landed       int     // segments downloaded
	contentReady float64 // seconds of content downloaded
	leadSum      float64 // Σ over landed segments of how long each waited to play
	startupLand  float64 // Σ arrival times of the segments landed before playback started

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

// MeanBufferLead returns the mean time a landed segment waited before it
// began playing — the buffer occupancy the session ran with. It is 0 until
// playback starts.
func (t *Timeline) MeanBufferLead() float64 {
	if t.landed == 0 {
		return 0
	}
	return t.leadSum / float64(t.landed)
}

// Advance accounts for one segment of the given wire size landing: the
// clock waits for the buffer cap, then moves by the modeled transfer time,
// one segment duration of content becomes ready, and any stall shifts the
// playback reference.
func (t *Timeline) Advance(bytes int64) {
	if t.started && t.BufferCapSegments > 0 {
		if gate := t.playWall + float64(t.landed-t.BufferCapSegments+1)*t.SegmentDuration; t.clock < gate {
			t.clock = gate
		}
	}
	t.Bytes += bytes
	t.clock += t.Link.TransferSeconds(bytes)
	t.contentReady += t.SegmentDuration
	t.landed++

	if !t.started {
		t.startupLand += t.clock
		if t.landed >= t.StartupSegments {
			t.started = true
			t.playWall = t.clock
			t.StartupDelay = t.clock
			// Startup segment j plays at playWall + j·SegmentDuration.
			n := float64(t.landed)
			t.leadSum = n*t.clock + n*(n-1)/2*t.SegmentDuration - t.startupLand
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
	} else {
		t.leadSum += avail - played
	}
}
