package corelite_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
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
	mains := strings.Fields(goOutput(t, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./..."))
	if len(mains) == 0 {
		t.Fatal("go list found no main package")
	}
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
	args := append([]string{"list", "-deps", "-f",
		`{{if .Module}}{{if .Module.Main}}{{.ImportPath}}{{"\t"}}{{.Dir}}{{range .GoFiles}}{{"\t"}}{{.}}{{end}}{{"\n"}}{{end}}{{end}}`},
		mains...)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var decls []funcDecl
	for _, line := range strings.Split(strings.TrimSpace(goOutput(t, args...)), "\n") {
		f := strings.Split(line, "\t")
		pkg, dir := f[0], f[1]
		if rel, err := filepath.Rel(wd, dir); err == nil {
			dir = rel // positions read relative to the module root
		}
		for _, name := range f[2:] {
			file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				key := pkg + "." + fn.Name.Name
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					key = pkg + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
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
