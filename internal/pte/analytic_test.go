package pte

import (
	"math"
	"testing"

	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
)

func TestFrameWorkMatchesCycleModelOrder(t *testing.T) {
	// The closed-form estimate must agree with the measured cycle model
	// within a modest factor (the estimate rounds the row band).
	vp := projection.Viewport{Width: 64, Height: 64, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	cfg := DefaultConfig(projection.ERP, pt.Bilinear, vp)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := smoothFrame(256, 128)
	e.Render(full, geom.Orientation{Yaw: 0.2})
	measured := float64(e.Stats().Cycles) / cfg.ClockHz
	estimated, rd, wr := cfg.FrameWork(256, 128)
	if rd <= 0 || wr != int64(vp.Pixels()*3) {
		t.Errorf("traffic estimate wrong: rd=%d wr=%d", rd, wr)
	}
	ratio := estimated / measured
	if ratio < 0.5 || ratio > 2.5 {
		t.Errorf("estimate %.2e s vs measured %.2e s (ratio %.2f)", estimated, measured, ratio)
	}
}

func TestFrameWorkReadBandScalesWithFOV(t *testing.T) {
	vp := projection.Viewport{Width: 64, Height: 64, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	narrow := DefaultConfig(projection.ERP, pt.Bilinear, vp)
	wideVP := vp
	wideVP.FOVY = geom.Radians(150)
	wide := DefaultConfig(projection.ERP, pt.Bilinear, wideVP)
	_, rdNarrow, _ := narrow.FrameWork(1024, 512)
	_, rdWide, _ := wide.FrameWork(1024, 512)
	if rdWide <= rdNarrow {
		t.Errorf("wider vertical FOV should read more rows: %d vs %d", rdWide, rdNarrow)
	}
}

func TestFrameWorkReadCappedAtFullFrame(t *testing.T) {
	vp := projection.Viewport{Width: 8, Height: 8, FOVX: geom.Radians(170), FOVY: geom.Radians(170)}
	cfg := DefaultConfig(projection.ERP, pt.Nearest, vp)
	_, rd, _ := cfg.FrameWork(64, 32)
	if rd > int64(64*32*3) {
		t.Errorf("read estimate %d exceeds the whole frame", rd)
	}
}

func TestPassthroughWorkMatchesEngine(t *testing.T) {
	vp := projection.Viewport{Width: 32, Height: 32, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	cfg := DefaultConfig(projection.ERP, pt.Nearest, vp)
	e, _ := New(cfg)
	fov := smoothFrame(32, 32)
	e.Passthrough(fov)
	measured := float64(e.Stats().Cycles) / cfg.ClockHz
	estimated, rd, wr := cfg.PassthroughWork(int64(fov.Bytes()))
	if math.Abs(estimated-measured)/measured > 1e-9 {
		t.Errorf("passthrough estimate %v vs measured %v", estimated, measured)
	}
	if rd != int64(fov.Bytes()) || wr != int64(fov.Bytes()) {
		t.Errorf("passthrough traffic %d/%d", rd, wr)
	}
}

func TestPassthroughEnergyTiny(t *testing.T) {
	vp := projection.Viewport{Width: 2560, Height: 1440, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	cfg := DefaultConfig(projection.ERP, pt.Bilinear, vp)
	pass := cfg.PassthroughEnergyJ(int64(vp.Pixels() * 3))
	render := cfg.FrameEnergyJ(3840, 2160)
	if pass*3 > render {
		t.Errorf("passthrough %v J not well below render %v J", pass, render)
	}
}
