package hmd

import (
	"testing"

	"evr/internal/geom"
	"evr/internal/headtrace"
	"evr/internal/scene"
)

func TestOSVRHDK2(t *testing.T) {
	c := OSVRHDK2()
	if c.DisplayW != 2560 || c.DisplayH != 1440 || c.FOVXDeg != 110 || c.FOVYDeg != 110 {
		t.Errorf("HDK2 config = %+v", c)
	}
}

func TestViewport(t *testing.T) {
	vp := OSVRHDK2().Viewport()
	if vp.Width != 2560 || vp.Height != 1440 {
		t.Errorf("viewport %dx%d", vp.Width, vp.Height)
	}
	if vp.FOVX != geom.Radians(110) {
		t.Errorf("FOVX = %v", vp.FOVX)
	}
}

func TestScaledViewport(t *testing.T) {
	vp := OSVRHDK2().ScaledViewport(40)
	if vp.Width != 64 || vp.Height != 36 {
		t.Errorf("scaled viewport %dx%d, want 64x36", vp.Width, vp.Height)
	}
	if vp.FOVX != geom.Radians(110) {
		t.Error("scaling must preserve FOV")
	}
	if v := OSVRHDK2().ScaledViewport(0); v.Width != 2560 {
		t.Error("scale < 1 should clamp to 1")
	}
}

func TestIMUReplay(t *testing.T) {
	v, _ := scene.ByName("RS")
	tr := headtrace.Generate(v, 0)
	imu := NewIMU(tr)
	if imu.Frames() != len(tr.Samples) {
		t.Fatalf("frames = %d", imu.Frames())
	}
	if imu.At(5) != tr.Samples[5].O {
		t.Error("replay mismatch")
	}
	if imu.At(-1) != tr.Samples[0].O {
		t.Error("negative index should clamp to start")
	}
	if imu.At(1<<20) != tr.Samples[len(tr.Samples)-1].O {
		t.Error("overflow index should clamp to end")
	}
	empty := NewIMU(headtrace.Trace{})
	if empty.At(0) != (geom.Orientation{}) {
		t.Error("empty trace should return identity")
	}
}
