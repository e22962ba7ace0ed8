// Package sas implements Semantic-Aware Streaming (§5), the paper's
// server-side primitive: pre-render the user's viewing area in the cloud by
// following object-cluster trajectories, so that on a FOV hit the client
// displays a planar FOV frame directly and skips the projective
// transformation entirely.
//
// The package covers both halves of the protocol:
//
//   - the static ingest analysis (§5.3): temporal segmentation into
//     30-frame segments aligned with the codec GOP, per-segment object
//     clustering (k-means), cluster trajectory tracking, and sizing of the
//     resulting FOV videos;
//   - the client support (§5.4): choosing the FOV video whose trajectory
//     matches the user's gaze at a segment boundary, and the per-frame FOV
//     checker that compares the IMU pose against the FOV frame's metadata.
//
// Plans can be built from ground-truth object annotations (fast, used by
// the large-scale experiments) or by the full pixel pipeline in package
// server (detection → tracking → clustering → pre-rendering → encoding).
package sas

import (
	"fmt"
	"math"
	"sort"

	"evr/internal/energy"
	"evr/internal/geom"
	"evr/internal/scene"
	"evr/internal/vision"
)

// Config holds the SAS design parameters.
type Config struct {
	// SegmentFrames is the temporal segment length; the paper statically
	// uses 30 frames to match the codec GOP (§5.3).
	SegmentFrames int
	// MarginDeg is the extra field of view pre-rendered around the
	// predicted gaze on each side; a FOV frame therefore tolerates head
	// poses within MarginDeg/2 of its metadata orientation.
	MarginDeg float64
	// Utilization is the fraction of detected objects used to create FOV
	// videos, the storage/energy knob of Fig. 14. 1.0 = all objects.
	Utilization float64
	// FOVPixelRatio is the pixel count of one margin-padded FOV frame
	// relative to a full panoramic frame (≈0.72 for a 110°+30° viewport
	// at 2560×1440 vs a 4K equirectangular frame).
	FOVPixelRatio float64
}

// DefaultConfig returns the paper's design point.
func DefaultConfig() Config {
	return Config{
		SegmentFrames: 30,
		MarginDeg:     40,
		Utilization:   1.0,
		FOVPixelRatio: 0.72,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SegmentFrames < 1 {
		return fmt.Errorf("sas: segment length %d must be ≥ 1", c.SegmentFrames)
	}
	if c.MarginDeg <= 0 || c.MarginDeg > 120 {
		return fmt.Errorf("sas: margin %v° out of (0, 120]", c.MarginDeg)
	}
	if c.Utilization <= 0 || c.Utilization > 1 {
		return fmt.Errorf("sas: utilization %v out of (0, 1]", c.Utilization)
	}
	if c.FOVPixelRatio <= 0 || c.FOVPixelRatio > 1 {
		return fmt.Errorf("sas: FOV pixel ratio %v out of (0, 1]", c.FOVPixelRatio)
	}
	return nil
}

// dedupeAngRad merges clusters whose keyframe centers are closer than this
// angle — their FOV videos would be near-identical.
const dedupeAngRad = 0.15

// HitToleranceRad returns the angular gaze deviation a FOV frame tolerates:
// half the pre-rendered margin.
func (c Config) HitToleranceRad() float64 {
	return geom.Radians(c.MarginDeg / 2)
}

// ClusterTrack is one FOV video's trajectory: the pre-rendered head
// orientation for each frame of a segment (the metadata streamed alongside
// the FOV frames, §5.2).
type ClusterTrack struct {
	Cluster int
	Centers []geom.Orientation
}

// SegmentPlan describes one temporal segment after ingest analysis.
type SegmentPlan struct {
	Index  int
	Start  int // first frame index in the video
	Frames int
	Tracks []ClusterTrack
	// OrigBytes is the compressed size of the original segment at the
	// video's nominal bitrate; FOVBytes sizes each cluster's FOV video.
	OrigBytes int64
	FOVBytes  []int64
}

// Plan is the full per-video SAS ingest result.
type Plan struct {
	Video    string
	FPS      int
	Cfg      Config
	Segments []SegmentPlan
}

// BuildPlan runs the ingest analysis against ground-truth object
// annotations: per segment, select objects by salience (utilization),
// cluster them at the key frame, track cluster centroids across tracking
// frames, and size the original and FOV bitstreams from the nominal bitrate
// model.
func BuildPlan(v scene.VideoSpec, cfg Config) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Video: v.Name, FPS: v.FPS, Cfg: cfg}
	total := v.Frames()
	bytesPerSecond := energy.NominalBitrateMbps(v.Complexity) * 1e6 / 8
	selected := selectObjects(v, cfg.Utilization)

	for start := 0; start < total; start += cfg.SegmentFrames {
		frames := cfg.SegmentFrames
		if start+frames > total {
			frames = total - start
		}
		seg := SegmentPlan{
			Index:     start / cfg.SegmentFrames,
			Start:     start,
			Frames:    frames,
			OrigBytes: int64(bytesPerSecond * float64(frames) / float64(v.FPS)),
		}
		tKey := float64(start) / float64(v.FPS)
		clusters := clusterAtKeyframe(v, selected, tKey)
		for ci, members := range clusters {
			track := ClusterTrack{Cluster: ci, Centers: make([]geom.Orientation, frames)}
			for f := 0; f < frames; f++ {
				t := float64(start+f) / float64(v.FPS)
				track.Centers[f] = centroidOrientation(v, members, t)
			}
			seg.Tracks = append(seg.Tracks, track)
			seg.FOVBytes = append(seg.FOVBytes, fovVideoBytes(seg.OrigBytes, track, v, cfg))
		}
		p.Segments = append(p.Segments, seg)
	}
	return p, nil
}

// selectObjects ranks objects by salience (angular size, then ID) and keeps
// the top utilization fraction, always at least one.
func selectObjects(v scene.VideoSpec, utilization float64) []int {
	if len(v.Objects) == 0 {
		return nil
	}
	idx := make([]int, len(v.Objects))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := v.Objects[idx[a]].Radius, v.Objects[idx[b]].Radius
		if ra != rb {
			return ra > rb
		}
		return idx[a] < idx[b]
	})
	n := int(math.Ceil(utilization * float64(len(idx))))
	if n < 1 {
		n = 1
	}
	if n > len(idx) {
		n = len(idx)
	}
	return idx[:n]
}

// clusterAtKeyframe groups the selected objects by position at the key
// frame (§5.3, Fig. 7), returning member index lists.
func clusterAtKeyframe(v scene.VideoSpec, selected []int, t float64) [][]int {
	if len(selected) == 0 {
		return nil
	}
	dirs := make([]geom.Vec3, len(selected))
	for i, oi := range selected {
		dirs[i] = v.Objects[oi].Center(t)
	}
	clusters := vision.KMeans(dirs, len(dirs), 1) // one cluster per object
	// Dedupe clusters whose centers nearly coincide.
	var out [][]int
	var centers []geom.Vec3
	for _, c := range clusters {
		members := make([]int, len(c.Members))
		for i, m := range c.Members {
			members[i] = selected[m]
		}
		merged := false
		for i, prev := range centers {
			if prev.Angle(c.Center) < dedupeAngRad {
				out[i] = append(out[i], members...)
				merged = true
				break
			}
		}
		if !merged {
			centers = append(centers, c.Center)
			out = append(out, members)
		}
	}
	return out
}

// centroidOrientation returns the gaze orientation at the normalized mean
// direction of the given objects at time t.
func centroidOrientation(v scene.VideoSpec, members []int, t float64) geom.Orientation {
	var sum geom.Vec3
	for _, oi := range members {
		sum = sum.Add(v.Objects[oi].Center(t))
	}
	if sum.Norm() < 1e-12 {
		return geom.Orientation{}
	}
	return geom.LookAt(sum.Normalize())
}

// fovVideoBytes models the compressed size of one FOV video for a segment:
// the pixel ratio of the margin-padded viewport times a motion penalty —
// tracking a moving cluster injects global motion that inter-frame coding
// cannot fully absorb, and low-complexity originals (which compress
// extremely well) make the relative cost of FOV videos higher.
func fovVideoBytes(origBytes int64, track ClusterTrack, v scene.VideoSpec, cfg Config) int64 {
	speed := trackSpeed(track, v.FPS)
	penalty := (0.75 + 2.5*speed) * math.Pow(0.8/v.Complexity, 0.25)
	if penalty < 0.5 {
		penalty = 0.5
	}
	if penalty > 3.0 {
		penalty = 3.0
	}
	return int64(float64(origBytes) * cfg.FOVPixelRatio * penalty)
}

// trackSpeed returns the mean angular speed of a trajectory in rad/s.
func trackSpeed(track ClusterTrack, fps int) float64 {
	if len(track.Centers) < 2 {
		return 0
	}
	var sum float64
	for i := 1; i < len(track.Centers); i++ {
		sum += track.Centers[i-1].AngularDistance(track.Centers[i])
	}
	return sum / float64(len(track.Centers)-1) * float64(fps)
}

// StorageOverhead returns total FOV video bytes divided by total original
// bytes — the x-axis of Fig. 14.
func (p *Plan) StorageOverhead() float64 {
	var fov, orig int64
	for _, s := range p.Segments {
		orig += s.OrigBytes
		for _, b := range s.FOVBytes {
			fov += b
		}
	}
	if orig == 0 {
		return 0
	}
	return float64(fov) / float64(orig)
}

// ChooseTrack picks the FOV video whose first-frame metadata is closest to
// the user's gaze at the segment boundary — the client request decision of
// §5.3. It returns -1 for segments with no FOV videos.
func ChooseTrack(seg *SegmentPlan, o geom.Orientation) int {
	best, bestAng := -1, math.Inf(1)
	for i, tr := range seg.Tracks {
		if len(tr.Centers) == 0 {
			continue
		}
		if ang := o.AngularDistance(tr.Centers[0]); ang < bestAng {
			best, bestAng = i, ang
		}
	}
	return best
}

// Hit implements the client FOV checker (§5.4): the frame is a hit if the
// desired gaze deviates from the FOV frame's metadata orientation by no
// more than the pre-rendered margin tolerance.
func (c Config) Hit(track *ClusterTrack, frameInSeg int, o geom.Orientation) bool {
	if track == nil || frameInSeg < 0 || frameInSeg >= len(track.Centers) {
		return false
	}
	return o.AngularDistance(track.Centers[frameInSeg]) <= c.HitToleranceRad()
}
