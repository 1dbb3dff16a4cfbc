package rmfec

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rmfec/internal/adapt"
	"rmfec/internal/core"
	"rmfec/internal/field"
	"rmfec/internal/figures"
	"rmfec/internal/loss"
	"rmfec/internal/metrics"
	"rmfec/internal/rse"
	"rmfec/internal/simnet"
	"rmfec/internal/udpcast"
)

// pkgClass says which determinism rules bind an internal/ package. The
// engines reproduce the paper's curves only because they are deterministic
// and single-threaded behind core.Env.
type pkgClass int

const (
	// engine: no wall clock, no global math/rand, no go statements; time
	// and randomness come from core.Env or a seeded *rand.Rand.
	engine pkgClass = iota
	// runner: owns worker goroutines on the engines' behalf (index-ordered
	// jobs, disjoint result slots) and reads no clock or global RNG.
	runner
	// transport: the wall-clock core.Env; it reads the clock and owns the
	// goroutines that call into the engines under one mutex.
	transport
	// pure: library code outside the Env contract; only docs are checked.
	pure
)

// internalPackages classifies every directory under internal/; a new
// directory fails TestInternalPackagesClassified until it has a row here.
var internalPackages = map[string]pkgClass{
	"adapt": engine, "core": engine, "field": engine, "figures": engine, "layered": engine,
	"loss": engine, "rect": engine, "sim": engine, "simnet": engine,
	"mcrun": runner, "pipeline": runner,
	"udpcast": transport,
	"gf16":    pure, "gf256": pure, "hostperf": pure, "metrics": pure, "model": pure,
	"numeric": pure, "packet": pure, "rse": pure,
}

// wallClock are the package time functions that read or wait on the host
// clock; durations and their arithmetic stay legal.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"Tick": true, "NewTicker": true, "NewTimer": true, "AfterFunc": true,
}

// seededRand are the math/rand (and v2) names that build or name an
// explicitly seeded generator; every other package-level name draws from
// the shared global source.
var seededRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "Rand": true, "Source": true,
	"Source64": true, "Zipf": true, "NewPCG": true, "NewChaCha8": true, "PCG": true, "ChaCha8": true,
}

// internalDirs lists the directories under internal/.
func internalDirs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	return dirs
}

// parseInternal parses the non-test files of internal/<dir>.
func parseInternal(t *testing.T, fset *token.FileSet, dir string) map[string]*ast.Package {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, filepath.Join("internal", dir), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestInternalPackagesClassified wants exactly one internalPackages row
// per internal/ directory: a new directory is held to no determinism rule
// until someone decides which class it belongs to.
func TestInternalPackagesClassified(t *testing.T) {
	seen := map[string]bool{}
	for _, dir := range internalDirs(t) {
		if _, ok := internalPackages[dir]; !ok {
			t.Errorf("internal/%s has no row in internalPackages", dir)
		}
		seen[dir] = true
	}
	for name := range internalPackages {
		if !seen[name] {
			t.Errorf("internalPackages lists internal/%s, which does not exist", name)
		}
	}
}

// TestPackageInvariants parses every classified internal/ package and
// holds it to its class: engines read no wall clock or global math/rand
// and start no goroutine, and runners read no clock or global RNG. A
// runner that starts no goroutine, or a transport that reads no clock, is
// misclassified.
func TestPackageInvariants(t *testing.T) {
	for _, dir := range internalDirs(t) {
		class, ok := internalPackages[dir]
		if !ok {
			continue // TestInternalPackagesClassified reports it
		}
		fset := token.NewFileSet()
		for _, pkg := range parseInternal(t, fset, dir) {
			var clock, gos []token.Pos
			for _, f := range pkg.Files {
				c, g := nondeterminism(f)
				clock, gos = append(clock, c...), append(gos, g...)
			}
			if class == engine || class == runner {
				for _, pos := range clock {
					t.Errorf("%s: wall clock or global math/rand in a deterministic package; use core.Env or a seeded *rand.Rand", fset.Position(pos))
				}
			}
			if class == engine {
				for _, pos := range gos {
					t.Errorf("%s: go statement in an engine package; goroutines belong to runners and transports", fset.Position(pos))
				}
			}
			if (class == runner || class == transport) && len(gos) == 0 {
				t.Errorf("internal/%s starts no goroutine; it is not a runner or transport", dir)
			}
			if class == transport && len(clock) == 0 {
				t.Errorf("internal/%s reads no wall clock; it is not a transport", dir)
			}
		}
	}
}

// TestInternalDocs wants every internal/ package, classified or not, to
// carry a package comment in some file and a doc comment on each exported
// declaration.
func TestInternalDocs(t *testing.T) {
	for _, dir := range internalDirs(t) {
		fset := token.NewFileSet()
		for _, pkg := range parseInternal(t, fset, dir) {
			pkgDoc := false
			for _, f := range pkg.Files {
				pkgDoc = pkgDoc || hasDoc(f.Doc)
				for _, pos := range undocumented(f) {
					t.Errorf("%s: exported declaration has no doc comment", fset.Position(pos))
				}
			}
			if !pkgDoc {
				t.Errorf("internal/%s: package %s has no package comment", dir, pkg.Name)
			}
		}
	}
}

// nondeterminism lists f's wall-clock and global math/rand references and
// its go statements. Package names resolve through f's own imports; a
// local that shadows one carries a parser object and is skipped.
func nondeterminism(f *ast.File) (clock, gos []token.Pos) {
	imported := map[string]string{} // local name -> "time" or "math/rand"
	for _, spec := range f.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		var pkg, name string
		switch path {
		case "time":
			pkg, name = "time", "time"
		case "math/rand", "math/rand/v2":
			pkg, name = "math/rand", "rand"
		default:
			continue
		}
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imported[name] = pkg
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			gos = append(gos, n.Pos())
		case *ast.SelectorExpr:
			id, ok := n.X.(*ast.Ident)
			if !ok || id.Obj != nil {
				break
			}
			switch imported[id.Name] {
			case "time":
				if wallClock[n.Sel.Name] {
					clock = append(clock, n.Pos())
				}
			case "math/rand":
				if !seededRand[n.Sel.Name] {
					clock = append(clock, n.Pos())
				}
			}
		}
		return true
	})
	return clock, gos
}

// undocumented lists f's exported declarations without a doc comment:
// functions, methods on exported types, each type, and const/var specs
// that neither a group comment nor a line comment covers.
func undocumented(f *ast.File) []token.Pos {
	var out []token.Pos
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && !hasDoc(d.Doc) && (d.Recv == nil || ast.IsExported(recvType(d.Recv.List[0].Type))) {
				out = append(out, d.Pos())
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !hasDoc(s.Doc) && !(hasDoc(d.Doc) && len(d.Specs) == 1) {
						out = append(out, s.Pos())
					}
				case *ast.ValueSpec:
					if !hasDoc(d.Doc) && !hasDoc(s.Doc) && s.Comment == nil && anyExported(s.Names) {
						out = append(out, s.Pos())
					}
				}
			}
		}
	}
	return out
}

func anyExported(names []*ast.Ident) bool {
	for _, n := range names {
		if n.IsExported() {
			return true
		}
	}
	return false
}

// recvType returns the base type name of a method receiver ("Code" for
// *Code or Code[T]).
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func hasDoc(cg *ast.CommentGroup) bool {
	return cg != nil && strings.TrimSpace(cg.Text()) != ""
}

// TestFloatEquality type-checks the analytic packages and rejects == and
// != between two non-constant floating-point operands: quantities equal on
// paper differ in ulps once summed in log space or truncated. Comparing
// with a constant (p == 0, x1-x0 == 0) is an exact sentinel and stays.
func TestFloatEquality(t *testing.T) {
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	for _, dir := range []string{"internal/model", "internal/numeric", "internal/figures"} {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			var files []*ast.File
			for _, f := range pkg.Files {
				files = append(files, f)
			}
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
			if _, err := conf.Check(dir, fset, files, info); err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				ast.Inspect(f, func(n ast.Node) bool {
					be, ok := n.(*ast.BinaryExpr)
					if !ok || be.Op != token.EQL && be.Op != token.NEQ {
						return true
					}
					x, y := info.Types[be.X], info.Types[be.Y]
					if (isFloat(x.Type) || isFloat(y.Type)) && x.Value == nil && y.Value == nil {
						t.Errorf("%s: floating-point %s between non-constant operands; compare with a tolerance", fset.Position(be.OpPos), be.Op)
					}
					return true
				})
			}
		}
	}
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// derivedSchema registers every instrument set into one fresh registry
// and returns its series in Names order. The registry itself panics on a
// malformed name or on one series registered as two kinds.
func derivedSchema(t *testing.T) []string {
	t.Helper()
	reg := metrics.NewRegistry()
	sched := simnet.NewScheduler()
	sched.Instrument(reg)
	net := simnet.NewNetwork(sched, rand.New(rand.NewSource(1)))
	net.Instrument(reg)
	cfg := core.Config{Session: 1, K: 8, MaxParity: 8, ShardSize: 16, Metrics: reg}
	if _, err := core.NewSender(net.AddNode(simnet.NodeConfig{}), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewReceiver(net.AddNode(simnet.NodeConfig{}), cfg); err != nil {
		t.Fatal(err)
	}
	pop := loss.NewBernoulliPopulation(1, 0, rand.New(rand.NewSource(1)))
	if _, err := field.New(net.AddNode(simnet.NodeConfig{}), field.Config{Protocol: cfg, Population: pop}); err != nil {
		t.Fatal(err)
	}
	adapt.New(adapt.DefaultConfig(), reg)
	rse.RegisterInstruments(reg)
	new(udpcast.Conn).Instrument(reg)
	figures.RunMetrics(reg)
	return reg.Names()
}

// seriesName is one series as the registry renders it: a snake_case name,
// then its labels, if any, as key="value" pairs.
var seriesName = regexp.MustCompile(`^[a-z][a-z0-9_]*(\{[a-z][a-z0-9_]*="[^"]*"(,[a-z][a-z0-9_]*="[^"]*")*\})?$`)

// TestMetricsSchemaDerivation checks the derivation TestMetricsSchema
// compares: two derivations agree, each labelled series is its own
// line in the registry's rendering, and the lines are sorted and unique.
func TestMetricsSchemaDerivation(t *testing.T) {
	first, second := derivedSchema(t), derivedSchema(t)
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Fatalf("two derivations differ:\n%v\n%v", first, second)
	}
	if len(first) == 0 {
		t.Fatal("no series registered")
	}
	for i, name := range first {
		if !seriesName.MatchString(name) {
			t.Errorf("series %q is not name{key=\"value\",...}", name)
		}
		if i > 0 && first[i-1] >= name {
			t.Errorf("series %q follows %q: not sorted and unique", name, first[i-1])
		}
	}
}

// TestMetricsSchema wants the derived series, in Names order, to be
// scripts/metrics_schema.txt byte for byte. On a mismatch the derived
// schema is left in $TMPDIR/metrics_schema.txt; copy it over the pinned
// file if the change is intended.
func TestMetricsSchema(t *testing.T) {
	got := strings.Join(derivedSchema(t), "\n") + "\n"
	want, err := os.ReadFile("scripts/metrics_schema.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		path := filepath.Join(os.TempDir(), "metrics_schema.txt")
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("registered series differ from the pinned schema: diff scripts/metrics_schema.txt %s", path)
	}
}
