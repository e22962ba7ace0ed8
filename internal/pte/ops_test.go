package pte

import (
	"testing"

	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
)

func opsViewport() projection.Viewport {
	return projection.Viewport{Width: 10, Height: 10, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
}

func TestPerPixelOpsByProjection(t *testing.T) {
	erp := PerPixelOps(DefaultConfig(projection.ERP, pt.Bilinear, opsViewport()))
	cmp := PerPixelOps(DefaultConfig(projection.CMP, pt.Bilinear, opsViewport()))
	eac := PerPixelOps(DefaultConfig(projection.EAC, pt.Bilinear, opsViewport()))

	if erp.CORDICRotations == 0 || erp.Sqrts != 1 || erp.Divides != 0 {
		t.Errorf("ERP ops wrong: %+v", erp)
	}
	if cmp.Divides != 2 || cmp.CORDICRotations != 0 || cmp.Sqrts != 0 {
		t.Errorf("CMP ops wrong: %+v", cmp)
	}
	if eac.Divides != 2 || eac.CORDICRotations != erp.CORDICRotations {
		t.Errorf("EAC ops wrong: %+v", eac)
	}
	// EAC is the dearest mapping; CMP the cheapest (§6.2's modularity).
	total := func(s OpStats) int64 {
		return s.PerspectiveMACs + s.CORDICRotations + s.Divides + s.Sqrts + s.FilterMACs + s.PixelFetches
	}
	if !(total(cmp) < total(erp) && total(erp) < total(eac)) {
		t.Errorf("mapping cost ordering broken: CMP %d, ERP %d, EAC %d",
			total(cmp), total(erp), total(eac))
	}
}

func TestPerPixelOpsByFilter(t *testing.T) {
	near := PerPixelOps(DefaultConfig(projection.ERP, pt.Nearest, opsViewport()))
	bi := PerPixelOps(DefaultConfig(projection.ERP, pt.Bilinear, opsViewport()))
	if near.PixelFetches != 1 || bi.PixelFetches != 4 {
		t.Errorf("fetch counts: nearest %d, bilinear %d", near.PixelFetches, bi.PixelFetches)
	}
	if bi.FilterMACs <= near.FilterMACs {
		t.Error("bilinear must cost more filter MACs")
	}
}

func TestCORDICRotationsTrackFormat(t *testing.T) {
	wide := DefaultConfig(projection.ERP, pt.Nearest, opsViewport())
	narrow := wide
	narrow.Format.TotalBits = 18
	narrow.Format.IntBits = 10
	if PerPixelOps(narrow).CORDICRotations >= PerPixelOps(wide).CORDICRotations {
		t.Error("narrower format should need fewer CORDIC stages")
	}
}
