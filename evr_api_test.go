package evr_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evr"
)

// TestPublicAPIEvaluation drives the facade the way a downstream user
// would: prepare, evaluate, compare.
func TestPublicAPIEvaluation(t *testing.T) {
	sys := evr.NewSystem()
	video, ok := evr.VideoByName("Timelapse")
	if !ok {
		t.Fatal("catalog missing Timelapse")
	}
	if err := sys.Prepare(video); err != nil {
		t.Fatal(err)
	}
	opts := evr.EvaluateOptions{Users: 3}
	base, err := sys.Evaluate("Timelapse", evr.Baseline, evr.OnlineStreaming, opts)
	if err != nil {
		t.Fatal(err)
	}
	both, err := sys.Evaluate("Timelapse", evr.SH, evr.OnlineStreaming, opts)
	if err != nil {
		t.Fatal(err)
	}
	if save := both.DeviceSavingPct(base); save < 15 || save > 50 {
		t.Errorf("facade device saving = %.1f%%", save)
	}
}

// TestPublicAPICatalog checks the dataset surface.
func TestPublicAPICatalog(t *testing.T) {
	if len(evr.Videos()) != 6 {
		t.Errorf("catalog has %d videos", len(evr.Videos()))
	}
	if evr.DatasetUsers != 59 {
		t.Error("user corpus size changed")
	}
	v, _ := evr.VideoByName("RS")
	tr := evr.GenerateTrace(v, 7)
	if len(tr.Samples) != v.Frames() {
		t.Error("trace length mismatch")
	}
	imu := evr.NewIMU(tr)
	if imu.Frames() != len(tr.Samples) {
		t.Error("IMU frames mismatch")
	}
}

// TestPublicAPIStreamingLoop exercises service + player through the facade.
func TestPublicAPIStreamingLoop(t *testing.T) {
	video, _ := evr.VideoByName("RS")
	cfg := evr.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 96, 48
	cfg.FOVW, cfg.FOVH = 32, 32
	cfg.MaxSegments = 1
	cfg.Codec.SearchRange = 1
	svc := evr.NewService()
	if _, err := svc.IngestVideo(video, cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	p := evr.NewPlayer(ts.URL)
	stats, frames, err := p.Play("RS", evr.NewIMU(evr.GenerateTrace(video, 0)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != 30 || len(frames) != 30 {
		t.Fatalf("played %d frames", stats.Frames)
	}
}

// TestPublicAPIServingLayer exercises the multi-user serving surface:
// explicit service options, the in-process listener, and the load engine.
func TestPublicAPIServingLayer(t *testing.T) {
	video, _ := evr.VideoByName("RS")
	cfg := evr.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 96, 48
	cfg.FOVW, cfg.FOVH = 32, 32
	cfg.MaxSegments = 1
	cfg.Codec.SearchRange = 1

	opts := evr.DefaultServiceOptions()
	if opts.RespCacheBytes <= 0 {
		t.Fatal("response cache off by default")
	}
	svc := evr.NewServiceOpts(opts)
	if _, err := svc.IngestVideo(video, cfg); err != nil {
		t.Fatal(err)
	}
	baseURL, shutdown, err := evr.ServeLocal(svc)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	rep, err := evr.RunLoad(evr.LoadConfig{
		BaseURL:       baseURL,
		Classes:       []evr.ClassSpec{{Name: "rs", Users: 2, Video: "RS"}},
		Segments:      1,
		ViewportScale: 32,
		Service:       svc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures()) != 0 {
		t.Fatalf("load failures: %v", rep.Failures())
	}
	stats, ok := svc.RespCacheStats()
	if !ok {
		t.Fatal("no response-cache stats with cache on")
	}
	if stats.Hits+stats.Misses == 0 {
		t.Error("load run never touched the response cache")
	}
}

// TestPublicAPIPTE exercises the accelerator surface.
func TestPublicAPIPTE(t *testing.T) {
	hmdCfg := evr.OSVRHDK2()
	if hmdCfg.DisplayW != 2560 {
		t.Error("HMD config wrong")
	}
}

// ExampleNewSystem demonstrates the headline evaluation in a few lines.
func ExampleNewSystem() {
	sys := evr.NewSystem()
	video, _ := evr.VideoByName("Rhino")
	if err := sys.Prepare(video); err != nil {
		panic(err)
	}
	opts := evr.EvaluateOptions{Users: 2}
	base, _ := sys.Evaluate("Rhino", evr.Baseline, evr.OnlineStreaming, opts)
	both, _ := sys.Evaluate("Rhino", evr.SH, evr.OnlineStreaming, opts)
	fmt.Printf("S+H saves energy: %v\n", both.DeviceSavingPct(base) > 20)
	// Output: S+H saves energy: true
}

// TestPublicAPIExperiments drives the experiment surface.
func TestPublicAPIExperiments(t *testing.T) {
	tables := evr.RunExperiments(2)
	if len(tables) != 13 {
		t.Fatalf("RunExperiments returned %d tables", len(tables))
	}
	for _, tb := range tables {
		if tb.String() == "" {
			t.Error("empty table rendering")
		}
	}
}

// TestPublicAPIAblations drives the ablation surface and the extension
// types through the facade.
func TestPublicAPIAblations(t *testing.T) {
	tables := evr.RunAblations(2)
	if len(tables) != 13 {
		t.Fatalf("RunAblations returned %d tables", len(tables))
	}
	rig := evr.SixCameraRig(16)
	if len(rig.Cameras) != 6 {
		t.Error("facade rig wrong")
	}
	if evr.DefaultLadder().Rungs() != 3 {
		t.Error("facade ladder wrong")
	}
}

// TestPublicAPIConformance drives the conformance oracle through the
// facade: run the fast subset and check the budgets it reports.
func TestPublicAPIConformance(t *testing.T) {
	fast := evr.ConformanceFastCorpus()
	if len(fast) == 0 || len(fast) >= len(evr.ConformanceCorpus()) {
		t.Fatalf("fast corpus has %d cases of %d", len(fast), len(evr.ConformanceCorpus()))
	}
	m, err := evr.RunConformance(fast[:2])
	if err != nil {
		t.Fatal(err)
	}
	if v := m.BudgetViolations(); len(v) > 0 {
		t.Fatalf("facade conformance run violates budgets: %v", v)
	}
	if m.FormatTable() == "" {
		t.Error("empty conformance table rendering")
	}
}

// TestPublicAPICluster exercises the sharded serving tier through the
// facade: build, ingest, route a load run, kill a shard mid-run, and read
// the cluster snapshot.
func TestPublicAPICluster(t *testing.T) {
	video, _ := evr.VideoByName("RS")
	cfg := evr.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 96, 48
	cfg.FOVW, cfg.FOVH = 32, 32
	cfg.MaxSegments = 2
	cfg.Codec.SearchRange = 1

	copts := evr.DefaultClusterOptions()
	copts.Shards = 2
	clu, err := evr.NewCluster(nil, copts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clu.Ingest(video, cfg); err != nil {
		t.Fatal(err)
	}
	baseURL, shutdown, err := evr.ServeHandler(clu.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	rep, err := evr.RunLoad(evr.LoadConfig{
		BaseURL:       baseURL,
		Classes:       []evr.ClassSpec{{Name: "rs", Users: 3, Video: "RS"}},
		Passes:        2,
		Segments:      2,
		ViewportScale: 32,
		Cluster:       clu,
		OnPassStart: func(pass int) {
			if pass == 2 {
				if err := clu.KillShard(0); err != nil {
					t.Errorf("kill shard: %v", err)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures()) != 0 {
		t.Fatalf("routed load failures: %v", rep.Failures())
	}
	// Checksums survive the kill: pass 2 (one shard down) must render the
	// same pixels as pass 1.
	sums := map[int]map[int]uint64{}
	for _, r := range rep.Results {
		if sums[r.User] == nil {
			sums[r.User] = map[int]uint64{}
		}
		sums[r.User][r.Pass] = r.Checksum
	}
	for u, byPass := range sums {
		if byPass[1] != byPass[2] || byPass[1] == 0 {
			t.Errorf("user %d: checksums differ across the shard kill: %#x vs %#x", u, byPass[1], byPass[2])
		}
	}
	for _, ps := range rep.PerPass {
		if ps.Cluster == nil {
			t.Fatalf("pass %d: no cluster delta for in-process cluster target", ps.Pass)
		}
	}
	st := clu.Stats()
	if st.Router.Requests == 0 || st.Router.LiveShards != 1 {
		t.Errorf("cluster stats: %d requests, %d live shards", st.Router.Requests, st.Router.LiveShards)
	}
	if st.Edge == nil || st.Edge.Hits == 0 {
		t.Error("edge cache absorbed nothing across 3 users × 2 passes")
	}
}

// TestPublicAPISpherical exercises the spherical-quality + SPORT surface:
// weight tables, the weighted metrics, banded rate control, truncation
// plans, and the fast sweep end to end.
func TestPublicAPISpherical(t *testing.T) {
	a, b := evr.NewFrame(96, 48), evr.NewFrame(96, 48)
	for i := range b.Pix {
		a.Pix[i] = byte(i)
		b.Pix[i] = byte(i) + byte(i%3) // small skew so metrics are finite
	}
	sp, err := evr.SPSNR(evr.ERP, a, b)
	if err != nil || sp <= 0 {
		t.Fatalf("SPSNR = %v, %v", sp, err)
	}
	ws, err := evr.WSPSNR(evr.ERP, a, b)
	if err != nil || ws <= 0 {
		t.Fatalf("WSPSNR = %v, %v", ws, err)
	}
	wt, err := evr.SphericalWeights(evr.ERP, 96, 48)
	if err != nil {
		t.Fatal(err)
	}
	if mse, err := wt.WeightedMSE(a, b); err != nil || mse <= 0 {
		t.Fatalf("WeightedMSE = %v, %v", mse, err)
	}

	rc, err := evr.NewSphericalRateController(48, 4, 4000, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	if rc.NumBands() != 4 {
		t.Errorf("controller has %d bands", rc.NumBands())
	}

	plan := evr.FlatTruncationPlan(evr.Q2810)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	mixed := evr.TruncationPlan{Regions: []evr.TruncationRegion{
		{MaxAbsLatDeg: 45, Format: evr.Q2810},
		{MaxAbsLatDeg: 90, Format: evr.FixedFormat{TotalBits: 24, IntBits: 10}},
	}}
	if err := mixed.Validate(); err != nil {
		t.Fatal(err)
	}

	r, err := evr.RunSPORT(evr.SPORTConfig{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Error("fast SPORT sweep infeasible through the facade")
	}
	tab := evr.SPORTExperimentTable(r)
	if tab.ID != "SPORT" || len(tab.Rows) != 2 {
		t.Errorf("SPORT table shape wrong: %q, %d rows", tab.ID, len(tab.Rows))
	}
}

// TestFacadeSurfaceIsReached keeps evr.go from silently regrowing: every
// exported function, variable and constant of the facade must be named as
// evr.<Name> by an example, a command or a root test, and every type alias
// must be reached — named there, in the signature of a function that is, or in
// an exported field or exported method signature of a reached alias's type
// (what a caller holding that type is handed or must supply). A constant
// block is reached when any of its constants is named — enum siblings (S
// beside SH, CMP beside ERP) come and go together.
func TestFacadeSurfaceIsReached(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		return f
	}
	goFiles := func(dir string) []string {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		return paths
	}

	// What examples, commands and root tests name.
	named := map[string]bool{}
	users, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"examples", "cmd"} {
		filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // an unreadable dir fails the parse below
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				users = append(users, path)
			}
			return err
		})
	}
	for _, path := range users {
		ast.Inspect(parse(path), func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "evr" {
					named[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	// typeRefs lists the types an expression mentions as "importpath.Name",
	// resolving package qualifiers through the file's imports; an unqualified
	// name belongs to pkgPath.
	typeRefs := func(file *ast.File, pkgPath string, expr ast.Node) (refs []string) {
		imports := map[string]string{}
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			imports[filepath.Base(path)] = path
		}
		ast.Inspect(expr, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := e.X.(*ast.Ident); ok {
					refs = append(refs, imports[pkg.Name]+"."+e.Sel.Name)
				}
				return false
			case *ast.Ident:
				refs = append(refs, pkgPath+"."+e.Name)
			}
			return true
		})
		return refs
	}

	// The facade: functions, values and constants must be named; aliases are
	// collected with their targets, seeded as reached when named or in a named
	// function's signature.
	facade := parse("evr.go")
	aliasOf := map[string]string{} // "importpath.Name" → alias
	reached := map[string]bool{}   // "importpath.Name"
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !named[d.Name.Name] {
				t.Errorf("func evr.%s is named by no example, command or root test", d.Name.Name)
			}
		case *ast.GenDecl:
			blockNamed := false
			var names []string
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					for _, target := range typeRefs(facade, "evr", s.Type) {
						aliasOf[target] = s.Name.Name
						reached[target] = named[s.Name.Name]
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						names = append(names, id.Name)
						blockNamed = blockNamed || named[id.Name]
					}
				}
			}
			for _, name := range names {
				if !named[name] && !(d.Tok == token.CONST && blockNamed) {
					t.Errorf("%s evr.%s is named by no example, command or root test", d.Tok, name)
				}
			}
		}
	}
	targetOf := map[string]string{}
	for target, alias := range aliasOf {
		targetOf["evr."+alias] = target
	}
	var frontier []string
	reach := func(refs []string) {
		for _, ref := range refs {
			if target, ok := targetOf[ref]; ok {
				ref = target // a facade signature names the alias, not its target
			}
			if _, isAlias := aliasOf[ref]; isAlias && !reached[ref] {
				reached[ref] = true
				frontier = append(frontier, ref)
			}
		}
	}
	for target, r := range reached {
		if r {
			frontier = append(frontier, target)
		}
	}
	for _, decl := range facade.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && named[fn.Name.Name] {
			reach(typeRefs(facade, "evr", fn.Type))
		}
	}

	// Close over the reached types' exported fields and method signatures.
	for len(frontier) > 0 {
		target := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		dot := strings.LastIndex(target, ".")
		pkgPath, typeName := target[:dot], target[dot+1:]
		for _, path := range goFiles(strings.TrimPrefix(pkgPath, "evr/")) {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file := parse(path)
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil || !d.Name.IsExported() {
						continue
					}
					recv := typeRefs(file, pkgPath, d.Recv.List[0].Type)
					if len(recv) == 1 && recv[0] == target {
						reach(typeRefs(file, pkgPath, d.Type))
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || ts.Name.Name != typeName {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							reach(typeRefs(file, pkgPath, ts.Type))
							continue
						}
						for _, field := range st.Fields.List {
							exported := len(field.Names) == 0 // embedded
							for _, name := range field.Names {
								exported = exported || name.IsExported()
							}
							if exported {
								reach(typeRefs(file, pkgPath, field.Type))
							}
						}
					}
				}
			}
		}
	}
	for target, alias := range aliasOf {
		if !reached[target] {
			t.Errorf("type evr.%s is named by no example, command or root test and reached from no kept signature or field", alias)
		}
	}
}

// TestInternalPackagesAreReached is the same guard one level up: every
// internal/* package must be imported, directly or transitively, by a
// command, an example or the evr.go facade. Only non-test files count, and
// bench/ is no root — a package that only tests or the benchmark reach is
// dead surface.
func TestInternalPackagesAreReached(t *testing.T) {
	fset := token.NewFileSet()
	// imports lists the in-module packages a directory's non-test files import.
	imports := func(dir string) (deps []string) {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			for _, imp := range f.Imports {
				if p, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "evr/"); ok {
					deps = append(deps, p)
				}
			}
		}
		return deps
	}

	var frontier []string
	for _, pattern := range []string{"cmd/*", "examples/*"} {
		roots, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, root := range roots {
			frontier = append(frontier, imports(root)...)
		}
	}
	frontier = append(frontier, imports(".")...) // evr.go
	reached := map[string]bool{}
	for len(frontier) > 0 {
		pkg := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if !reached[pkg] {
			reached[pkg] = true
			frontier = append(frontier, imports(pkg)...)
		}
	}

	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if pkg := "internal/" + e.Name(); e.IsDir() && !reached[pkg] {
			t.Errorf("%s is imported by no command, example or evr.go, directly or transitively", pkg)
		}
	}
}
