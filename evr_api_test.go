package evr_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
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

// TestFacadeSurfaceIsReached keeps evr.go from silently regrowing: every
// exported function, variable and constant of the facade must be named as
// evr.<Name> by an example or a command, and every type alias must be
// reached — named there, in the signature of a function that is, or in an
// exported field or exported method signature of a reached alias's type
// (what a caller holding that type is handed or must supply). A constant
// block is reached when any of its constants is named — enum siblings (S
// beside SH, H beside Baseline) come and go together. Root tests are no
// users: a name only they reach is surface kept alive for its own test.
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

	// What examples and commands name.
	named := map[string]bool{}
	var users []string
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
				t.Errorf("func evr.%s is named by no example or command", d.Name.Name)
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
					t.Errorf("%s evr.%s is named by no example or command", d.Tok, name)
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
			t.Errorf("type evr.%s is named by no example or command and reached from no kept signature or field", alias)
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

// linkAllowlist names the internal functions no product binary links that
// stay anyway, each with the reason: a test fake, a reference oracle, an
// interface forwarder, or an accessor a named test of linked code needs and
// has no linked way to observe. Keys are import paths below evr/internal/
// as `go tool nm` spells them.
var linkAllowlist = map[string]string{
	"server.NewVirtualClock":         "test fake: the clock behind LiveOptions.Clock in server's live tests (TestLiveVirtualClockSchedule, TestLiveBackpressure)",
	"server.(*VirtualClock).Now":     "test fake: VirtualClock implements server.Clock",
	"server.(*VirtualClock).After":   "test fake: VirtualClock implements server.Clock",
	"server.(*VirtualClock).Advance": "test fake: the live tests step the schedule with it",
	"server.(*countingWriter).Flush": "interface forwarder: passes http.Flusher through the metrics wrapper (TestCountingWriterFlushPassthrough)",
	"server.(*Service).TooEarly":     "accessor: client TestPlayerJoinsMidLiveStream checks the server rejected ahead-of-edge requests",
	"telemetry.(*Tracer).Hits":       "accessor: client TestTelemetryByteIdentical checks traced hits against the QoE accounting",
	"conformance.Measure":            "oracle: ptlut TestCorpusQuantizedBudgets measures the quantized LUT against pt with it",
	"conformance.LUTQuantBudgetFor":  "oracle: the budgets ptlut TestCorpusQuantizedBudgets holds the quantized LUT to",
	"pt.(*Mapper).Map":               "oracle: the per-pixel map pt TestRenderRowsMatchesMapSample holds Row to; TestMapMatchesRayToPlane holds it to Viewport.Ray + ToPlane",
	"pt.Config.Sample":               "oracle: the per-pixel filter pt TestRenderRowsMatchesMapSample holds sampleRow to",
	"display.ToRGB":                  "oracle: codec's reference decoder (reference_test.go) converts chroma-coded frames back with it",
	"scene.VideoSpec.ColorAt":        "oracle: the per-direction exact-angle colour scene TestRasterMatchesColorAt and FuzzRasterMatchesColorAt hold Raster.Frame and Instant.Color to byte for byte",
	"client.Variant.String":          "fmt.Stringer of the facade's evr.Variant: no binary formats a Variant since the experiments cache key became a struct (it was the one %v caller); TestVariantUseCaseStrings pins the names",
}

// genericShape matches one innermost type-argument list of a linker symbol,
// as in (*Cache[go.shape.string,go.shape.[]uint8]).Get.
var genericShape = regexp.MustCompile(`\[[^\[\]]*\]`)

// TestEveryFunctionIsLinked is the guard below the package and facade ones:
// every function and method declared in a non-test file under internal/
// must be linked into a product binary, or be on linkAllowlist. It builds
// every command and example, and the benchmark, with inlining off (so a
// function inlined at every call site still leaves its symbol) and reads
// what the linker kept with `go tool nm`. A function only tests call is
// dead surface; it goes with its tests.
func TestEveryFunctionIsLinked(t *testing.T) {
	bin := t.TempDir()
	build := func(dir string, args ...string) {
		t.Helper()
		cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
	}
	build(".", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	// bench/ is a root although no user runs it: it is the frozen benchmark
	// module, and the wrappers only its replay calls stay until it changes.
	build("bench", filepath.Join(bin, "bench"), ".")

	linked := map[string]bool{}
	binaries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range binaries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, b.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", b.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "addr type name", where a generic name may contain spaces.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name, ok := strings.CutPrefix(f[2], "evr/internal/")
			if !ok {
				continue
			}
			for prev := ""; prev != name; {
				prev, name = name, genericShape.ReplaceAllString(name, "")
			}
			linked[name] = true
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	fset := token.NewFileSet()
	declared := map[string]bool{}
	var unlinked []string
	filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // an unreadable dir fails the parse below
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				star, ptr := recv.(*ast.StarExpr)
				if ptr {
					recv = star.X
				}
				switch r := recv.(type) {
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				typ := recv.(*ast.Ident).Name
				if ptr {
					typ = "(*" + typ + ")"
				}
				name = pkg + "." + typ + "." + fn.Name.Name
			}
			declared[name] = true
			if !linked[name] && linkAllowlist[name] == "" {
				unlinked = append(unlinked, fmt.Sprintf("%s (%s)", name, fset.Position(fn.Pos())))
			}
		}
		return nil
	})
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("%s is linked into no command, example or the benchmark: delete it with its tests, or allowlist it with a reason", u)
	}
	for name := range linkAllowlist {
		switch {
		case !declared[name]:
			t.Errorf("allowlisted %s is no longer declared: drop its entry", name)
		case linked[name]:
			t.Errorf("allowlisted %s is linked now: drop its entry", name)
		}
	}
}

// fieldAllowlist names the exported config fields no non-test code sets
// outside their preset that stay anyway, each with the reason: a test seam,
// transport timing the fetcher tests shrink, a design knob whose caller has
// not landed, or a field the frozen benchmark module reads. Keys are
// "package.Type.Field" below evr/internal/.
var fieldAllowlist = map[string]string{
	"client.FetchConfig.BackoffBase":        "transport timing: the fetcher's retry tests shrink it to milliseconds",
	"client.FetchConfig.BackoffMax":         "transport timing: the fetcher's retry tests shrink it to milliseconds",
	"client.FetchConfig.LiveWaitMax":        "transport timing: TestFetcherLiveWaitDeadline shrinks the live-edge wait bound",
	"server.LiveOptions.Clock":              "test seam: the virtual clock server's live tests drive the schedule with",
	"loadgen.Config.HTTP":                   "test seam: loadgen's tests inject a counting transport",
	"server.IngestConfig.EmbeddedSemantics": "design knob: the §9 capture/playback co-design, which no command exposes yet (capture_test exercises it)",
	"server.IngestConfig.Codec":             "test seam: tests cut motion search (Codec.SearchRange) to keep small ingests fast",
	"server.IngestConfig.SAS":               "bench/ reads it (SegmentFrames, sas.BuildPlan) and is frozen until the benchmark changes",
	"server.IngestConfig.FOVXDeg":           "bench/ reads it to size FOV frames and is frozen until the benchmark changes",
	"server.IngestConfig.FOVYDeg":           "the vertical twin of FOVXDeg, validated and carried into the manifest beside it",
	"experiments.SPORTConfig.TargetSPSNR":   "design knob: the SPORT quality floor; evrbench -sport runs dominance mode (zero), TestSPORTUnreachableTarget sets it",
	"pte.Config.SMEMSize":                   "prototype geometry: the §7.2 table prints it beside PMEMSize, which the P-MEM ablation varies",
}

// sourceLoader type-checks the module's packages from source, non-test
// files only, into one types.Info; the standard library comes from the
// source importer.
type sourceLoader struct {
	fset *token.FileSet
	std  types.Importer
	info *types.Info
	pkgs map[string]*types.Package
	// files holds each checked package's files, by import path.
	files map[string][]*ast.File
}

func (l *sourceLoader) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "evr/")
	if path == "evr" {
		dir, ok = ".", true
	}
	if !ok {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = p, files
	return p, nil
}

// TestEveryConfigFieldIsSet is the guard beside TestEveryFunctionIsLinked
// for data: every exported field of an exported *Config or *Options struct
// under internal/, and of client.Player, must be set by some non-test code
// in internal/, cmd/, examples/ or bench/ — an assignment, a composite
// literal key or an address taken — other than the declaring package's
// Default* presets and NewPlayer. A field nobody varies is a constant in
// disguise: fold it into the code, or allowlist it with a reason. Structs
// with json tags are skipped: outside input sets them.
func TestEveryConfigFieldIsSet(t *testing.T) {
	fset := token.NewFileSet()
	l := &sourceLoader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}, Types: map[ast.Expr]types.TypeAndValue{}},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	var paths []string
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // an unreadable dir fails the import below
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				if dir := "evr/" + filepath.ToSlash(filepath.Dir(path)); len(paths) == 0 || paths[len(paths)-1] != dir {
					paths = append(paths, dir)
				}
			}
			return err
		})
	}
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	// The guarded fields, keyed "package.Type.Field" below evr/internal/.
	guarded := map[*types.Var]string{}
	for path, p := range l.pkgs {
		pkg, ok := strings.CutPrefix(path, "evr/internal/")
		if !ok {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || path+"."+name == "evr/internal/client.Player") {
				continue
			}
			tagged := false
			for i := 0; i < st.NumFields(); i++ {
				_, tagged = reflect.StructTag(st.Tag(i)).Lookup("json")
				if tagged {
					break
				}
			}
			for i := 0; i < st.NumFields() && !tagged; i++ {
				if f := st.Field(i); f.Exported() {
					guarded[f] = pkg + "." + name + "." + f.Name()
				}
			}
		}
	}

	// Count the writes. In the declaring package's presets only a value
	// built from the preset's parameters counts: the caller varies it
	// through the argument (NewPlayer's baseURL, DefaultPolicy's segment
	// duration).
	written := map[*types.Var]bool{}
	for path, files := range l.files {
		for _, file := range files {
			for _, decl := range file.Decls {
				var params map[types.Object]bool // non-nil inside a preset
				if d, ok := decl.(*ast.FuncDecl); ok && (strings.HasPrefix(d.Name.Name, "Default") || d.Name.Name == "NewPlayer") {
					params = map[types.Object]bool{}
					for _, field := range d.Type.Params.List {
						for _, name := range field.Names {
							params[l.info.Defs[name]] = true
						}
					}
				}
				write := func(obj types.Object, values ...ast.Expr) {
					f, ok := obj.(*types.Var)
					if !ok || guarded[f] == "" {
						return
					}
					varied := params == nil || f.Pkg().Path() != path
					for _, v := range values {
						ast.Inspect(v, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok && params[l.info.Uses[id]] {
								varied = true
							}
							return !varied
						})
					}
					written[f] = written[f] || varied
				}
				// lhs records every field selected along a written
				// expression: setting cfg.SAS.MarginDeg varies both
				// MarginDeg and SAS.
				var lhs func(e ast.Expr, values ...ast.Expr)
				lhs = func(e ast.Expr, values ...ast.Expr) {
					switch x := e.(type) {
					case *ast.SelectorExpr:
						if sel := l.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
							write(sel.Obj(), values...)
						}
						lhs(x.X, values...)
					case *ast.ParenExpr:
						lhs(x.X, values...)
					case *ast.IndexExpr:
						lhs(x.X, values...)
					case *ast.StarExpr:
						lhs(x.X, values...)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.AssignStmt:
						for _, e := range x.Lhs {
							lhs(e, x.Rhs...)
						}
					case *ast.IncDecStmt:
						lhs(x.X)
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							lhs(x.X)
						}
					case *ast.CompositeLit:
						st, ok := l.info.Types[x].Type.Underlying().(*types.Struct)
						if !ok {
							return true
						}
						for i, elt := range x.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								write(l.info.Uses[kv.Key.(*ast.Ident)], kv.Value)
							} else {
								write(st.Field(i), elt)
							}
						}
					}
					return true
				})
			}
		}
	}

	var unset []string
	seen := map[string]bool{}
	for f, name := range guarded {
		seen[name] = true
		switch {
		case !written[f] && fieldAllowlist[name] == "":
			unset = append(unset, fmt.Sprintf("%s (%s)", name, fset.Position(f.Pos())))
		case written[f] && fieldAllowlist[name] != "":
			t.Errorf("allowlisted %s is set now: drop its entry", name)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is set by no non-test code outside its preset: fold it into a constant, or allowlist it with a reason", u)
	}
	for name := range fieldAllowlist {
		if !seen[name] {
			t.Errorf("allowlisted %s is no longer a guarded field: drop its entry", name)
		}
	}
}
