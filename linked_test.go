package corelite_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// linkAllowlist names the non-test functions of program-imported packages
// that no program links, each with the reason it stays. Keys are spelled as
// TestProductionIsLinked reports them: import path, then the function or the
// (pointer) receiver and method. An entry that a program links again, or
// whose function is gone, fails the test: delete the entry then.
var linkAllowlist = map[string]string{
	// The weighted max-min reference. topology.MaxMinProblem builds its
	// input in production, but only tests solve it: it is the oracle the
	// fluid allocator and the fairness checks are judged by.
	"repro/internal/maxmin.Solve":             "test oracle for the fluid allocator and the fairness checks",
	"repro/internal/maxmin.SolveWithMinimums": "test oracle for minimum-rate contracts",
	"repro/internal/maxmin.NormalizedRates":   "test oracle: rate over weight per flow",

	// The spec printer is the other half of FuzzTopoSpec's round trip.
	"repro/internal/topospec.(*Spec).Format":  "printer for the parse/format round-trip fuzz target",
	"repro/internal/topospec.NodeRole.String": "printer for the parse/format round-trip fuzz target",

	// Names of enumerations, for test failures and %v.
	"repro/internal/experiments.Backend.String": "names a backend in messages and %v",
	"repro/internal/flowsim.Control.String":     "names a control law in messages and %v",

	// Observation points that tests in other packages read.
	"repro/internal/obs.(*Registry).Events":     "experiments and ingress tests read the control-event stream",
	"repro/internal/obs.(*Registry).Gauges":     "experiments and ingress tests check which gauges a run registers",
	"repro/internal/obs.(*Registry).Histograms": "the facade's obs-determinism tests count histogram observations",
	"repro/internal/netem.(*Link).Delay":        "topology and topospec tests check link delays against their references",
	"repro/internal/workload.(*Pacer).Rate":     "ingress tests check the rate an epoch paces a flow at",

	// Stopping an epoch ticker: no program stops an edge or a router
	// before its run ends, but the core, csfq and ingress tests pin that
	// no tick runs after Stop.
	"repro/internal/ingress.(*Ticker).Stop": "core, csfq and ingress tests stop tickers to pin the withdraw idiom",
	"repro/internal/ingress.(*Edge).Stop":   "core, csfq and ingress tests stop edges to pin the withdraw idiom",
}

// TestProductionIsLinked holds production code to what some program links.
// It builds every main package of the module without inlining, reads the
// binaries' text symbols, and parses every non-test function declared in the
// module packages those programs import. A function that no program links
// and that linkAllowlist does not name fails the test; so does an allowlist
// entry that is linked again or no longer declared. Code that only tests
// need lives in _test.go files or in packages that only tests import.
//
// The linker keeps every method that an interface could reach, so a method
// can be linked and still be dead; the check is a lower bound on dead code.
func TestProductionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every program of the module")
	}
	mains := programs(t)
	bin := t.TempDir()
	goOutput(t, append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...)

	// linked holds the normalised symbol of every function some program
	// links. A main package's symbols are spelled "main.F"; they are keyed
	// by that program's import path, so one program cannot vouch for
	// another's main package.
	linked := map[string]bool{}
	for _, m := range mains {
		exe := filepath.Join(bin, path.Base(m))
		for _, line := range strings.Split(goOutput(t, "tool", "nm", exe), "\n") {
			name, ok := textSymbol(line)
			if !ok {
				continue
			}
			key, ok := normalizeSymbol(name)
			if !ok {
				continue
			}
			if rest, isMain := strings.CutPrefix(key, "main."); isMain {
				key = m + "." + rest
			}
			linked[key] = true
			// A value method called through its pointer wrapper is linked
			// through that wrapper.
			if pkg, rest, ok := strings.Cut(key, ".(*"); ok {
				if typ, meth, ok := strings.Cut(rest, ")."); ok {
					linked[pkg+"."+typ+"."+meth] = true
				}
			}
		}
	}

	decls := declaredFuncs(t, mains)
	declared := map[string]bool{}
	var unlinked []string
	allowed := 0
	for _, d := range decls {
		declared[d.key] = true
		switch _, listed := linkAllowlist[d.key]; {
		case linked[d.key]:
		case listed:
			allowed++
		default:
			unlinked = append(unlinked, d.String())
		}
	}
	var stale []string
	for key := range linkAllowlist {
		switch {
		case !declared[key]:
			stale = append(stale, key+": not declared in a program-imported package")
		case linked[key]:
			stale = append(stale, key+": linked by a program")
		}
	}
	sort.Strings(stale)
	t.Logf("%d programs link %d of %d declared functions; %d unlinked are allowlisted",
		len(mains), len(decls)-allowed-len(unlinked), len(decls), allowed)
	if len(unlinked) > 0 {
		t.Errorf("%d functions are linked by no program (delete them, move them to a _test.go file or a test-only package, or allowlist them with a reason):\n\t%s",
			len(unlinked), strings.Join(unlinked, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d stale allowlist entries:\n\t%s", len(stale), strings.Join(stale, "\n\t"))
	}
}

// programs returns the import paths of the module's main packages.
func programs(t *testing.T) []string {
	t.Helper()
	mains := strings.Fields(goOutput(t, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./..."))
	if len(mains) == 0 {
		t.Fatal("go list found no main package")
	}
	return mains
}

// progPackage is one package that some program imports.
type progPackage struct {
	path, dir string
	files     []string // non-test Go files, as paths
	module    bool     // declared in this module
	export    string   // export data file, when listed with export
}

// programPackages lists the packages the given programs import, themselves
// included, dependencies first. With export it also builds them and records
// each package's export data file. Directories of module packages read
// relative to the module root, so positions print short.
func programPackages(t *testing.T, mains []string, export bool) []progPackage {
	t.Helper()
	args := []string{"list", "-deps", "-f",
		`{{.ImportPath}}{{"\t"}}{{.Dir}}{{"\t"}}{{.Export}}{{"\t"}}{{with .Module}}{{.Main}}{{end}}{{range .GoFiles}}{{"\t"}}{{.}}{{end}}`}
	if export {
		args = append(args, "-export")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []progPackage
	for _, line := range strings.Split(strings.TrimSpace(goOutput(t, append(args, mains...)...)), "\n") {
		f := strings.Split(line, "\t")
		p := progPackage{path: f[0], dir: f[1], export: f[2], module: f[3] == "true"}
		if rel, err := filepath.Rel(wd, p.dir); err == nil && p.module {
			p.dir = rel
		}
		for _, name := range f[4:] {
			p.files = append(p.files, filepath.Join(p.dir, name))
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// goOutput runs the go command and returns its standard output.
func goOutput(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// textSymbol returns the name on a line of go tool nm output if the symbol
// is code (type T or t). Names may contain spaces (generic shape types).
func textSymbol(line string) (string, bool) {
	f := strings.Fields(line)
	if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
		return "", false
	}
	_, name, _ := strings.Cut(strings.TrimLeft(line, " "), " "+f[1]+" ")
	return name, true
}

var closurePart = regexp.MustCompile(`^((func|gowrap|deferwrap)[0-9]+|[0-9]+)$`)

// normalizeSymbol maps a linker symbol to the spelling declaredFuncs uses:
// type arguments and generic shapes are dropped ("pkg.(*Edge[go.shape.int]).Add"
// becomes "pkg.(*Edge).Add") and so is a method value's "-fm". Closures,
// go/defer wrappers, dictionaries, package init and runtime-generated
// symbols report false.
func normalizeSymbol(sym string) (string, bool) {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[' || (r == '{' && depth > 0):
			depth++
		case (r == ']' || r == '}') && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := strings.TrimSuffix(b.String(), "-fm")
	slash := strings.LastIndexByte(s, '/')
	dot := strings.IndexByte(s[slash+1:], '.')
	if dot <= 0 || strings.Contains(s[:slash+1], ":") {
		return "", false
	}
	pkg, rest := s[:slash+1+dot], s[slash+2+dot:]
	if rest == "" || rest[0] == '.' {
		return "", false // ..dict., ..stmp_, ..inittask and the like
	}
	parts := strings.Split(rest, ".")
	n := 1
	if len(parts) > 1 && !closurePart.MatchString(parts[1]) {
		n = 2 // a method: (*T).M or T.M
	}
	if len(parts) > n || parts[0] == "init" {
		return "", false
	}
	return pkg + "." + rest, true
}

// funcDecl is one non-test function declaration.
type funcDecl struct {
	key   string // import path + "." + [receiver "."] name
	pos   token.Position
	lines int
}

func (d funcDecl) String() string {
	return fmt.Sprintf("%s (%s, %d lines)", d.key, d.pos, d.lines)
}

// declaredFuncs parses the non-test Go files of every package of this
// module that the given programs import (themselves included).
func declaredFuncs(t *testing.T, mains []string) []funcDecl {
	t.Helper()
	fset := token.NewFileSet()
	var decls []funcDecl
	for _, p := range programPackages(t, mains, false) {
		if !p.module {
			continue
		}
		for _, name := range p.files {
			file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				key := p.path + "." + fn.Name.Name
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					key = p.path + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				pos := fset.Position(fn.Pos())
				decls = append(decls, funcDecl{key: key, pos: pos, lines: fset.Position(fn.End()).Line - pos.Line + 1})
			}
		}
	}
	return decls
}

// receiverName spells a receiver type as the linker does, without type
// parameters: "(*T)" or "T".
func receiverName(x ast.Expr) string {
	star, ptr := x.(*ast.StarExpr)
	if ptr {
		x = star.X
	}
	switch g := x.(type) {
	case *ast.IndexExpr:
		x = g.X
	case *ast.IndexListExpr:
		x = g.X
	}
	name := x.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")"
	}
	return name
}

// TestNormalizeSymbol pins how linker symbols map to declared names.
func TestNormalizeSymbol(t *testing.T) {
	shape := "go.shape.struct { repro/internal/core.minRate float64; repro/internal/core.feedback []repro/internal/core.coreCount }"
	for _, c := range []struct {
		sym, want string // want "" means skipped
	}{
		{"repro/internal/netem.(*Link).Send", "repro/internal/netem.(*Link).Send"},
		{"repro/internal/experiments.Backend.String", "repro/internal/experiments.Backend.String"},
		{"repro/internal/netem.NewDropTail", "repro/internal/netem.NewDropTail"},
		{"repro/internal/ingress.(*Edge[" + shape + "]).Add", "repro/internal/ingress.(*Edge).Add"},
		{"repro/internal/experiments.strayFlow[go.shape.[]repro/internal/workload.Interval]", "repro/internal/experiments.strayFlow"},
		{"repro/internal/adapt.(*Controller).Rate-fm", "repro/internal/adapt.(*Controller).Rate"},
		{"repro.Run", "repro.Run"},
		{"main.main", "main.main"},
		{"repro/internal/obs.(*Registry).StartSampler.func1", ""},
		{"repro/internal/ingress.(*Edge[" + shape + "]).Start.func1", ""},
		{"repro/internal/run.(*Pool).Execute.func2.1", ""},
		{"repro/internal/run.(*Pool).Execute.gowrap1", ""},
		{"repro/internal/run.Run.deferwrap1", ""},
		{"repro/internal/experiments..dict.strayFlow[repro/internal/workload.Schedule]", ""},
		{"repro/internal/obs.init.0", ""},
		{"repro/internal/obs.init", ""},
		{"type:.eq.repro/internal/packet.FlowID", ""},
		{"go:buildid", ""},
	} {
		got, ok := normalizeSymbol(c.sym)
		if ok != (c.want != "") || got != c.want {
			t.Errorf("normalizeSymbol(%q) = %q, %v; want %q", c.sym, got, ok, c.want)
		}
	}
}

// stateAllowlist names the fields that TestProductionStateIsRead would
// report, each with the reason it stays. Keys are spelled as the test
// reports them: import path, type, field. An entry whose field some program
// reads again, or that is no longer declared, fails the test.
var stateAllowlist = map[string]string{
	// Parameters that benchmark/micro.go passes, so the constructors keep
	// them and the fields that hold them.
	"repro/internal/packet.Packet.SentAt":        "benchmark/micro.go passes a send time to packet.New and Pool.Get, which store it here",
	"repro/internal/metrics.FlowRecorder.window": "benchmark/micro.go calls NewFlowRecorder(window), which stores it here",
}

// TestProductionStateIsRead holds production state to what some program
// reads. It type-checks every package the module's programs import and
// reports each struct field that a non-test file of a module package
// declares and that no program's non-test code reads. A write is not a
// read: an assignment's left-hand side, ++ and --, an op-assignment and a
// composite-literal key only store. Embedded fields, and fields with a
// struct tag (which reflection reads), are exempt. Reads in benchmark count,
// but its own fields are out of scope: it is the measuring stick. State
// that only tests read belongs in the tests, or on stateAllowlist with the
// test that needs it.
func TestProductionStateIsRead(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every program of the module")
	}
	pkgs := programPackages(t, programs(t), true)
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.path] = p.export
	}
	fset := token.NewFileSet()
	imp := progImporter{
		checked: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
	}
	var checked []checkedPkg
	for _, p := range pkgs {
		if !p.module {
			continue
		}
		var files []*ast.File
		for _, name := range p.files {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		c, err := typeCheck(fset, p.path, files, imp)
		if err != nil {
			t.Fatal(err)
		}
		c.declares = p.path != "repro/benchmark"
		imp.checked[p.path] = c.pkg
		checked = append(checked, c)
	}

	unread, declared := unreadFields(fset, checked)
	var report []string
	allowed := 0
	for _, f := range unread {
		if _, listed := stateAllowlist[f.key]; listed {
			allowed++
			continue
		}
		report = append(report, f.String())
	}
	var stale []string
	for key := range stateAllowlist {
		switch {
		case !declared[key]:
			stale = append(stale, key+": not a field declared in a program-imported package")
		case !slices.ContainsFunc(unread, func(f fieldDecl) bool { return f.key == key }):
			stale = append(stale, key+": read by a program")
		}
	}
	sort.Strings(stale)
	t.Logf("programs read %d of %d declared fields; %d unread are allowlisted",
		len(declared)-len(unread), len(declared), allowed)
	if len(report) > 0 {
		t.Errorf("%d fields are read by no program (delete them and their writes, move them to the tests, or allowlist them with a reason):\n\t%s",
			len(report), strings.Join(report, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d stale allowlist entries:\n\t%s", len(stale), strings.Join(stale, "\n\t"))
	}
}

// progImporter resolves module packages to the ones already type-checked
// and everything else through its export data.
type progImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (im progImporter) Import(path string) (*types.Package, error) {
	if p := im.checked[path]; p != nil {
		return p, nil
	}
	return im.std.Import(path)
}

// checkedPkg is one type-checked package. Its files' field reads count;
// its own fields are in scope only if it declares.
type checkedPkg struct {
	pkg      *types.Package
	files    []*ast.File
	info     *types.Info
	declares bool
}

func typeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (checkedPkg, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	return checkedPkg{pkg: pkg, files: files, info: info, declares: true}, err
}

// fieldDecl is one struct field a non-test file declares.
type fieldDecl struct {
	key string // import path + "." + type + "." + field
	pos token.Position
}

func (f fieldDecl) String() string { return fmt.Sprintf("%s (%s)", f.key, f.pos) }

// unreadFields returns the fields that declaring packages declare and that
// no file of pkgs reads, in declaration order, and the keys of every field
// in scope. Fields of generic types are matched through their origin, so a
// read through any instance counts.
func unreadFields(fset *token.FileSet, pkgs []checkedPkg) ([]fieldDecl, map[string]bool) {
	read := map[*types.Var]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			writes := writeTargets(f, p.info)
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && !writes[sel] {
					if v := fieldOf(p.info, sel); v != nil {
						read[v] = true
					}
				}
				return true
			})
		}
	}
	var unread []fieldDecl
	declared := map[string]bool{}
	for _, p := range pkgs {
		if !p.declares {
			continue
		}
		for _, f := range p.files {
			for st, typeName := range structTypes(f) {
				for _, field := range st.Fields.List {
					if len(field.Names) == 0 || field.Tag != nil {
						continue // embedded, or read by reflection
					}
					for _, name := range field.Names {
						v, _ := p.info.Defs[name].(*types.Var)
						if name.Name == "_" || v == nil {
							continue
						}
						d := fieldDecl{key: p.pkg.Path() + "." + typeName + "." + name.Name, pos: fset.Position(name.Pos())}
						declared[d.key] = true
						if !read[v] {
							unread = append(unread, d)
						}
					}
				}
			}
		}
	}
	sort.Slice(unread, func(i, j int) bool {
		a, b := unread[i].pos, unread[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	return unread, declared
}

// structTypes maps each struct type literal of f to the name its fields
// are reported under: the declared type's name, extended by the field
// names that lead to a nested struct ("T.inner"), or "struct" for a struct
// that no type declaration names.
func structTypes(f *ast.File) map[*ast.StructType]string {
	names := map[*ast.StructType]string{}
	var name func(x ast.Expr, as string)
	name = func(x ast.Expr, as string) {
		switch x := x.(type) {
		case *ast.StructType:
			names[x] = as
			for _, field := range x.Fields.List {
				for _, n := range field.Names {
					name(field.Type, as+"."+n.Name)
				}
			}
		case *ast.StarExpr:
			name(x.X, as)
		case *ast.ArrayType:
			name(x.Elt, as)
		case *ast.MapType:
			name(x.Value, as)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			name(n.Type, n.Name.Name)
		case *ast.StructType:
			if _, ok := names[n]; !ok {
				name(n, "struct")
			}
		}
		return true
	})
	return names
}

// fieldOf returns the field a selector selects, at its origin, or nil if
// it selects a method or a qualified identifier.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj().(*types.Var).Origin()
}

// writeTargets returns the field selectors of f that only store: the
// targets of assignments, op-assignments, ++/-- and range clauses, and the
// struct or array values a stored field or element sits inside (in
// "x.f.g = 1" with f a struct, f is written too). A field reached through
// a pointer, slice or map is read to find where the store goes.
func writeTargets(f *ast.File, info *types.Info) map[*ast.SelectorExpr]bool {
	writes := map[*ast.SelectorExpr]bool{}
	var store func(x ast.Expr)
	store = func(x ast.Expr) {
		switch x := ast.Unparen(x).(type) {
		case *ast.SelectorExpr:
			if fieldOf(info, x) == nil {
				return
			}
			writes[x] = true
			if isValue(info, x.X) {
				store(x.X)
			}
		case *ast.IndexExpr:
			if _, isArray := info.TypeOf(x.X).Underlying().(*types.Array); isArray {
				store(x.X)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, x := range n.Lhs {
				store(x)
			}
		case *ast.IncDecStmt:
			store(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, x := range []ast.Expr{n.Key, n.Value} {
					if x != nil {
						store(x)
					}
				}
			}
		}
		return true
	})
	return writes
}

// isValue reports whether a selector's operand is a struct value, so that
// storing into one of its fields stores into it.
func isValue(info *types.Info, x ast.Expr) bool {
	_, isStruct := info.TypeOf(x).Underlying().(*types.Struct)
	return isStruct
}

// TestUnreadFields pins the field analysis on in-memory sources: which
// uses are writes, which fields are exempt, and how generic fields and
// fields of a non-declaring package are matched.
func TestUnreadFields(t *testing.T) {
	lib := `package lib

type S struct {
	Read      int
	WriteOnly int
	OpAssign  int
	Inc       int
	Key       int
	Tagged    int ` + "`json:\"tagged\"`" + `
	E
	inMethod  int
	rcv       R
	inner     struct{ x int }
	ptr       *P
	arr       [2]int
	sl        []int
	BenchRead int
}

type E struct{}

type P struct{ y int }

type R struct{}

func (R) Get() int { return 0 }

type Box[T any] struct{ v, w T }

func (s S) get() int { return s.inMethod }

func Use(s S) {
	s.WriteOnly = 1
	s.OpAssign += 2
	s.Inc++
	_ = S{Key: 1}
	_ = s.Read
	get, rget := s.get, s.rcv.Get
	_, _ = get, rget
	s.inner.x = 1
	s.ptr.y = 1
	s.arr[0] = 1
	s.sl[0] = 1
	b := Box[int]{}
	_ = b.v
	b.w = 3
}
`
	bench := `package bench

import "ex/lib"

type Mine struct{ unread int }

func F(s lib.S) int { return s.BenchRead }
`
	fset := token.NewFileSet()
	imp := progImporter{checked: map[string]*types.Package{}, std: importer.Default()}
	var pkgs []checkedPkg
	for _, src := range []struct{ path, code string }{{"ex/lib", lib}, {"ex/bench", bench}} {
		f, err := parser.ParseFile(fset, path.Base(src.path)+".go", src.code, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		c, err := typeCheck(fset, src.path, []*ast.File{f}, imp)
		if err != nil {
			t.Fatal(err)
		}
		c.declares = src.path == "ex/lib"
		imp.checked[src.path] = c.pkg
		pkgs = append(pkgs, c)
	}
	unread, declared := unreadFields(fset, pkgs)
	var got []string
	for _, f := range unread {
		got = append(got, strings.TrimPrefix(f.key, "ex/lib."))
	}
	want := []string{"S.WriteOnly", "S.OpAssign", "S.Inc", "S.Key", "S.inner", "S.inner.x", "S.arr", "P.y", "Box.w"}
	if !slices.Equal(got, want) {
		t.Errorf("unread fields %q, want %q", got, want)
	}
	for _, key := range []string{"S.Tagged", "S.E", "bench.Mine.unread"} {
		if declared["ex/lib."+key] || declared["ex/"+key] {
			t.Errorf("%s is in scope; tagged, embedded and non-declaring packages' fields are exempt", key)
		}
	}
	if n := len(declared); n != 16 {
		t.Errorf("%d fields in scope, want 16", n)
	}
}
