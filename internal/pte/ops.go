package pte

import (
	"evr/internal/projection"
	"evr/internal/pt"
)

// OpStats counts the arithmetic operations of the PT datapath per stage —
// the accounting behind the PTU microarchitecture discussion (§6.2): the
// perspective-update stage runs on the four-way MAC unit, the mapping
// engine's cost depends on the projection method (ERP pays CORDIC
// trigonometry, cubemaps pay dividers, EAC pays both), and the filtering
// stage's MACs depend on the reconstruction function.
type OpStats struct {
	PerspectiveMACs int64 // four-way MAC issues in perspective update
	CORDICRotations int64 // CORDIC micro-rotations (atan2 + sincos stages)
	Divides         int64 // divider issues in the mapping engine
	Sqrts           int64 // bit-serial square roots
	FilterMACs      int64 // blending MACs in the filtering stage
	PixelFetches    int64 // P-MEM reads
}

// PerPixelOps returns the datapath op counts for one output pixel under a
// configuration, derived from the pipeline structure:
//
//   - perspective update: px/py index scaling (2 MACs) plus the 3×3
//     rotation applied to (px, py, 1) — 9 MACs on the four-way unit;
//   - mapping: ERP runs two CORDIC vectoring passes (theta, phi) and one
//     square root; CMP runs two divides; EAC runs two divides plus two
//     CORDIC passes for the equi-angular warp; all pay 2 scaling MACs;
//   - filtering: nearest samples once; bilinear fetches 4 texels and blends
//     3 channels with 4 weight MACs each, plus 4 weight products.
func PerPixelOps(cfg Config) OpStats {
	iters := int64(cfg.Format.CORDICIterations())
	ops := OpStats{PerspectiveMACs: 11}
	switch cfg.Projection {
	case projection.ERP:
		ops.CORDICRotations = 2 * iters
		ops.Sqrts = 1
	case projection.CMP:
		ops.Divides = 2
	case projection.EAC:
		ops.Divides = 2
		ops.CORDICRotations = 2 * iters
	}
	ops.FilterMACs = 2 // scaling to pixel coordinates
	if cfg.Filter == pt.Bilinear {
		ops.PixelFetches = 4
		ops.FilterMACs += 4 + 3*4
	} else {
		ops.PixelFetches = 1
	}
	return ops
}
