package vision

import (
	"sort"

	"evr/internal/geom"
)

// Track is one object identity maintained across frames.
type Track struct {
	ID       int
	Dir      geom.Vec3 // latest position
	Radius   float64
	LastSeen float64 // time of the latest matched detection
	Hits     int     // matched detections so far
}

// Tracker associates detections across frames by angular proximity —
// greedy nearest-neighbor matching, sufficient for the smooth trajectories
// of 360° content (the paper tracks objects within each temporal segment,
// §5.3).
type Tracker struct {
	// MaxMatchAngle is the largest angular distance (radians) at which a
	// detection may continue an existing track.
	MaxMatchAngle float64
	// DropAfter removes a track unmatched for this many seconds.
	DropAfter float64

	tracks []Track
	nextID int
}

// NewTracker returns a tracker with the given association gates.
func NewTracker(maxMatchAngle, dropAfter float64) *Tracker {
	return &Tracker{MaxMatchAngle: maxMatchAngle, DropAfter: dropAfter}
}

// Tracks returns the live tracks, ordered by ID.
func (t *Tracker) Tracks() []Track {
	out := append([]Track(nil), t.tracks...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Update associates the detections of one frame (at time now) with existing
// tracks, spawning new tracks for unmatched detections and dropping stale
// tracks. It returns the live tracks after the update.
func (t *Tracker) Update(dets []Detection, now float64) []Track {
	type pair struct {
		track, det int
		ang        float64
	}
	var pairs []pair
	for ti := range t.tracks {
		for di := range dets {
			if ang := t.tracks[ti].Dir.Angle(dets[di].Dir); ang <= t.MaxMatchAngle {
				pairs = append(pairs, pair{ti, di, ang})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].ang < pairs[j].ang })
	usedTrack := make(map[int]bool)
	usedDet := make(map[int]bool)
	for _, p := range pairs {
		if usedTrack[p.track] || usedDet[p.det] {
			continue
		}
		usedTrack[p.track] = true
		usedDet[p.det] = true
		tr := &t.tracks[p.track]
		tr.Dir = dets[p.det].Dir
		tr.Radius = dets[p.det].Radius
		tr.LastSeen = now
		tr.Hits++
	}
	for di := range dets {
		if usedDet[di] {
			continue
		}
		t.tracks = append(t.tracks, Track{
			ID: t.nextID, Dir: dets[di].Dir, Radius: dets[di].Radius, LastSeen: now, Hits: 1,
		})
		t.nextID++
	}
	live := t.tracks[:0]
	for _, tr := range t.tracks {
		if now-tr.LastSeen <= t.DropAfter {
			live = append(live, tr)
		}
	}
	t.tracks = live
	return t.Tracks()
}
