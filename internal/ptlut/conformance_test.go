package ptlut_test

import (
	"sync"
	"testing"

	"evr/internal/conformance"
	"evr/internal/geom"
	"evr/internal/pt"
	"evr/internal/ptlut"
)

// TestCorpusExactByteIdentity is the property test behind the PR's headline
// claim, at full corpus scale: for all 90 conformance cases (15 poses × 3
// projections × 2 filters, covering poles, the ERP seam, cube edges and
// corners), the exact-mode LUT render through a shared cache is
// byte-identical to pt.RenderParallel. conformance.RunCase re-checks this
// with a cold table per case; here the tables come from one cache, so hits
// and evictions are on the identity path too.
func TestCorpusExactByteIdentity(t *testing.T) {
	cache := ptlut.NewCache(0, nil)
	for _, c := range conformance.Corpus() {
		full := conformance.InputFrame(c.Projection)
		cfg := c.PTConfig()
		r, err := ptlut.NewRenderer(cfg, cache, ptlut.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		want := pt.RenderParallel(cfg, full, c.Pose, c.Workers)
		// Twice: a cold build and a cache hit must both be identical.
		for pass := 0; pass < 2; pass++ {
			got := render(r, full, c.Pose, c.Workers)
			if !want.Equal(got) {
				t.Errorf("%s (pass %d): exact LUT render differs from pt.RenderParallel", c.Name, pass)
			}
			pt.Recycle(got)
		}
		pt.Recycle(want)
	}
	if st := cache.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("corpus sweep exercised no cache traffic: %+v", st)
	}
}

// TestCorpusQuantizedBudgets holds the quantized mode (default 0.25° pose
// grid + Q8 fixed-point weights) to its per-(filter, label) error budgets
// on the conformance stress corpus — the same budget machinery that gates
// the fixed-point accelerator, with bounds reflecting the LUT's own error
// model (a sub-pixel whole-frame shift from pose snapping). Boundary-pose
// classes (pole, seam, edge), where clamp/wrap behavior diverges first, are
// covered by their own classes; a pose already on the grid must be nearly
// exact.
func TestCorpusQuantizedBudgets(t *testing.T) {
	cache := ptlut.NewCache(0, nil)
	for _, c := range conformance.Corpus() {
		full := conformance.InputFrame(c.Projection)
		cfg := c.PTConfig()
		r, err := ptlut.NewRenderer(cfg, cache, ptlut.Options{
			QuantStep:    ptlut.DefaultQuantStep,
			QuantWeights: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		ref := pt.RenderParallel(cfg, full, c.Pose, c.Workers)
		got := render(r, full, c.Pose, c.Workers)
		m := conformance.Measure(ref, got)
		for _, v := range conformance.LUTQuantBudgetFor(c.Filter, c.Label).Violations(c.Name, m) {
			t.Error(v)
		}
		pt.Recycle(got)
		pt.Recycle(ref)
	}
}

// TestConcurrentBuildEvictRender is the race-detector soak: many goroutines
// render a rotating set of poses through one deliberately tiny cache, so
// builds, singleflight joins, hits, and evictions all interleave with
// concurrent Apply calls on shared tables. Run with -race in CI.
func TestConcurrentBuildEvictRender(t *testing.T) {
	cfg := conformance.Corpus()[0].PTConfig()
	full := conformance.InputFrame(conformance.Corpus()[0].Projection)

	probe, err := ptlut.Build(cfg, geom.Orientation{}, full.W, full.H, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Room for ~2 tables: every third pose forces an eviction.
	cache := ptlut.NewCache(2*probe.Bytes()+probe.Bytes()/2, nil)
	r, err := ptlut.NewRenderer(cfg, cache, ptlut.Options{})
	if err != nil {
		t.Fatal(err)
	}

	poses := make([]geom.Orientation, 5)
	for i := range poses {
		poses[i] = geom.Orientation{Yaw: float64(i) * 0.3, Pitch: float64(i%3) * 0.2}
	}
	refs := make(map[int]uint64, len(poses))
	for i, o := range poses {
		f := pt.Render(cfg, full, o)
		refs[i] = conformance.Checksum(f)
		pt.Recycle(f)
	}

	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pi := (g + i) % len(poses)
				out, err := r.RenderChecked(full, poses[pi], 2)
				if err != nil {
					t.Error(err)
					return
				}
				if conformance.Checksum(out) != refs[pi] {
					t.Errorf("goroutine %d iter %d: wrong pixels for pose %d", g, i, pi)
				}
				pt.Recycle(out)
			}
		}()
	}
	wg.Wait()
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Errorf("soak produced no evictions (budget too large?): %+v", st)
	}
	if st.Bytes > 2*probe.Bytes()+probe.Bytes()/2 {
		t.Errorf("cache over budget after soak: %+v", st)
	}
}
