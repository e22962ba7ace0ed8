package main

import (
	"fmt"
	"io"
	"math"
	"sync"

	"evr/internal/delivery"
	"evr/internal/frame"
	"evr/internal/loadgen"
)

// psnrCap stands in for +Inf when a frame is byte-identical to the
// reference, so identical playbacks don't poison the mean.
const psnrCap = 60.0

// frameStore collects each session's displayed frames for cross-mode PSNR
// scoring. Sessions write concurrently.
type frameStore struct {
	mu     sync.Mutex
	frames map[int][]*frame.Frame // user → displayed frames (pass 1)
}

func newFrameStore() *frameStore {
	return &frameStore{frames: make(map[int][]*frame.Frame)}
}

func (s *frameStore) sink(user, pass int, _ string, frames []*frame.Frame) {
	if pass != 1 {
		return
	}
	s.mu.Lock()
	s.frames[user] = frames
	s.mu.Unlock()
}

// meanPSNR scores a mode's displayed frames against the reference mode's,
// averaged over every common frame of every user. Identical frames count
// at the cap.
func meanPSNR(got, ref *frameStore) float64 {
	var sum float64
	var n int
	for user, rf := range ref.frames {
		gf, ok := got.frames[user]
		if !ok {
			continue
		}
		m := len(rf)
		if len(gf) < m {
			m = len(gf)
		}
		for i := 0; i < m; i++ {
			p := frame.PSNR(gf[i], rf[i])
			if math.IsInf(p, 1) || p > psnrCap {
				p = psnrCap
			}
			sum += p
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// frontierRow is one delivery mode's aggregate outcome.
type frontierRow struct {
	name      string
	wireBytes int64
	stalls    int
	stallSec  float64
	psnr      string // mean viewport PSNR in dB, "ref" for the reference
	energyJ   float64
	fovSegs   int
	tiledSegs int
	origSegs  int
}

// runFrontier sweeps the three forced delivery modes plus the auto policy
// against one in-process server and prints the policy frontier: bytes on
// the wire vs modeled stalls vs viewport PSNR vs client energy, the
// players' own ledgers. The orig mode — every frame client-rendered from
// the full panorama — is the quality reference the other modes are scored
// against.
func runFrontier(w io.Writer, base loadgen.Config, fullW, fullH int) error {
	var rows []frontierRow
	var ref *frameStore
	users := 0
	for _, m := range []delivery.Mode{delivery.ModeOrig, delivery.ModeFOV, delivery.ModeTiled, delivery.ModeAuto} {
		cfg := base
		cfg.Passes = 1
		cfg.Classes = append([]loadgen.ClassSpec(nil), base.Classes...)
		for i := range cfg.Classes {
			cfg.Classes[i].Delivery = m.String()
		}
		store := newFrameStore()
		cfg.FrameSink = store.sink
		rep, err := loadgen.Run(cfg)
		if err != nil {
			return fmt.Errorf("frontier %v: %w", m, err)
		}
		if fails := rep.Failures(); len(fails) > 0 {
			return fmt.Errorf("frontier %v: %d/%d sessions failed (first: %v)",
				m, len(fails), len(rep.Results), fails[0].Err)
		}
		users = rep.Users
		row := frontierRow{name: m.String()}
		for _, ps := range rep.PerPass {
			row.wireBytes += ps.ModeledBytes
			row.stalls += ps.ModeledStalls
			row.stallSec += ps.ModeledStallSec
			row.fovSegs += ps.ModeFOVSegments
			row.tiledSegs += ps.ModeTiledSegments
			row.origSegs += ps.ModeOrigSegments
			row.energyJ += ps.Ledger.Total()
		}
		if ref == nil {
			ref = store // orig runs first: the quality reference
			row.psnr = "ref"
		} else {
			row.psnr = fmt.Sprintf("%.2f", meanPSNR(store, ref))
		}
		rows = append(rows, row)
	}

	fmt.Fprintf(w, "delivery-policy frontier: %d users, %d segments, %dx%d panorama\n",
		users, base.Segments, fullW, fullH)
	fmt.Fprintf(w, "%-6s %12s %7s %9s %10s %10s %20s\n",
		"mode", "wire-bytes", "stalls", "stall-sec", "psnr(dB)", "energy(J)", "segments f/t/o")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %12d %7d %9.2f %10s %10.2f %12d/%d/%d\n",
			r.name, r.wireBytes, r.stalls, r.stallSec, r.psnr, r.energyJ,
			r.fovSegs, r.tiledSegs, r.origSegs)
	}

	fmt.Fprintln(w, "\nmarkdown (for EXPERIMENTS.md):")
	fmt.Fprintln(w, "| mode | wire bytes | modeled stalls | stall sec | viewport PSNR (dB) | client energy (J) | segments fov/tiled/orig |")
	fmt.Fprintln(w, "|------|-----------:|---------------:|----------:|-------------------:|------------------:|------------------------:|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %d | %d | %.2f | %s | %.2f | %d/%d/%d |\n",
			r.name, r.wireBytes, r.stalls, r.stallSec, r.psnr, r.energyJ,
			r.fovSegs, r.tiledSegs, r.origSegs)
	}
	return nil
}
