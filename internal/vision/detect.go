// Package vision supplies the object-semantics extraction of the SAS cloud
// component (§5.3): object detection on key frames, tracking across tracking
// frames, and k-means clustering of co-watched objects.
//
// The paper uses YOLOv2 for detection; the evaluation does not depend on
// detector sophistication, only on boxes and identities, so this package
// substitutes a classical pipeline matched to the synthetic content: a
// saliency mask (saturated or very bright pixels against the muted
// procedural background) followed by connected-component extraction.
package vision

import (
	"math"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
)

// Detection is one detected object in a panoramic frame.
type Detection struct {
	Dir    geom.Vec3 // direction of the centroid on the viewing sphere
	Radius float64   // approximate angular radius in radians
	Area   int       // pixel area of the component
	// Bounding box in pixels: min/max inclusive.
	X0, Y0, X1, Y1 int
}

// The detector's saliency mask and component filter, matched to the scene
// package's palette.
const (
	saturationMin = 60  // min (max-min channel) spread to be object-like
	lumaMin       = 230 // alternatively, min luma (catches white objects)
	minArea       = 6   // discard components smaller than this
)

// Detect finds salient connected components in a full panoramic frame of
// the given projection and returns them as sphere-space detections.
func Detect(f *frame.Frame, m projection.Method) []Detection {
	w, h := f.W, f.H
	if w == 0 || h == 0 {
		return nil
	}
	mask := make([]bool, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, b := f.At(x, y)
			mx, mn := maxb(r, g, b), minb(r, g, b)
			if int(mx)-int(mn) >= saturationMin || f.Luma(x, y) >= lumaMin {
				mask[y*w+x] = true
			}
		}
	}
	// Connected components with 4-connectivity; the x-axis wraps for 360°
	// frames (an object straddling the seam is one object).
	labels := make([]int, w*h)
	for i := range labels {
		labels[i] = -1
	}
	var dets []Detection
	var stack []int
	next := 0
	for start := 0; start < w*h; start++ {
		if !mask[start] || labels[start] >= 0 {
			continue
		}
		stack = append(stack[:0], start)
		labels[start] = next
		var sum geom.Vec3
		area := 0
		x0, y0, x1, y1 := w, h, -1, -1
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			py, px := p/w, p%w
			area++
			if px < x0 {
				x0 = px
			}
			if px > x1 {
				x1 = px
			}
			if py < y0 {
				y0 = py
			}
			if py > y1 {
				y1 = py
			}
			sum = sum.Add(projection.ToSphere(m, (float64(px)+0.5)/float64(w), (float64(py)+0.5)/float64(h)))
			for _, q := range neighbors(px, py, w, h) {
				if mask[q] && labels[q] < 0 {
					labels[q] = next
					stack = append(stack, q)
				}
			}
		}
		if area < minArea {
			continue
		}
		center := sum.Scale(1 / float64(area)).Normalize()
		// Angular radius from the solid angle of the component: the frame
		// covers 4π steradians across w*h pixels (approximately, for ERP
		// mid-latitudes and cubemaps alike), and a cap of radius r covers
		// 2π(1-cos r).
		frac := float64(area) / float64(w*h)
		radius := capRadiusFromFraction(frac)
		dets = append(dets, Detection{Dir: center, Radius: radius, Area: area, X0: x0, Y0: y0, X1: x1, Y1: y1})
		next++
	}
	return dets
}

// neighbors returns the 4-connected neighbor indices with horizontal wrap.
func neighbors(x, y, w, h int) [4]int {
	left, right := x-1, x+1
	if left < 0 {
		left = w - 1
	}
	if right >= w {
		right = 0
	}
	up, down := y-1, y+1
	if up < 0 {
		up = y // self: harmless duplicate
	}
	if down >= h {
		down = y
	}
	return [4]int{y*w + left, y*w + right, up*w + x, down*w + x}
}

// capRadiusFromFraction inverts the spherical-cap area formula
// frac = (1-cos r)/2.
func capRadiusFromFraction(frac float64) float64 {
	c := 1 - 2*frac
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

func maxb(a, b, c byte) byte {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}

func minb(a, b, c byte) byte {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}
