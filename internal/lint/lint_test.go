package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// writeFixture writes a synthetic module into a temp dir and returns its
// root. Keys of files are module-relative paths.
func writeFixture(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fixture\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runFixture writes a synthetic module, loads it, and runs every rule
// under cfg.
func runFixture(t *testing.T, cfg Config, files map[string]string) []Diagnostic {
	t.Helper()
	mod, err := LoadModule(writeFixture(t, files))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	return Run(mod, cfg)
}

// wantDiags asserts the exact set of findings as "file:line: rule" strings.
func wantDiags(t *testing.T, got []Diagnostic, want ...string) {
	t.Helper()
	var gs []string
	for _, d := range got {
		gs = append(gs, fmt.Sprintf("%s:%d: %s", d.Pos.Filename, d.Pos.Line, d.Rule))
	}
	if len(gs) != len(want) {
		t.Fatalf("got %d findings %v, want %d %v", len(gs), gs, len(want), want)
	}
	for i := range want {
		if gs[i] != want[i] {
			t.Errorf("finding %d = %q, want %q", i, gs[i], want[i])
		}
	}
}

func engineCfg() Config {
	return Config{
		EnvPackages:           []string{"engine"},
		GoroutineFreePackages: []string{"engine"},
		FloatEqPackages:       []string{"fp"},
	}
}

func TestEnvDisciplinePositive(t *testing.T) {
	got := runFixture(t, engineCfg(), map[string]string{
		"engine/engine.go": `package engine

import (
	"math/rand"
	"time"
)

func Bad() time.Time {
	time.Sleep(time.Millisecond)
	_ = rand.Intn(7)
	return time.Now()
}
`,
	})
	wantDiags(t, got,
		"engine/engine.go:9: env-discipline",
		"engine/engine.go:10: env-discipline",
		"engine/engine.go:11: env-discipline",
	)
}

func TestEnvDisciplineAliasedImport(t *testing.T) {
	// Renaming the import must not dodge the rule: resolution is by the
	// imported package's path, not the local name.
	got := runFixture(t, engineCfg(), map[string]string{
		"engine/engine.go": `package engine

import clock "time"

func Sneaky() clock.Time { return clock.Now() }
`,
	})
	wantDiags(t, got, "engine/engine.go:5: env-discipline")
}

func TestEnvDisciplineNegative(t *testing.T) {
	got := runFixture(t, engineCfg(), map[string]string{
		// Seeded generators and duration arithmetic are the approved idiom.
		"engine/engine.go": `package engine

import (
	"math/rand"
	"time"
)

func Good(seed int64, d time.Duration) float64 {
	rng := rand.New(rand.NewSource(seed))
	_ = d * 2
	return rng.Float64()
}
`,
		// The same calls outside a configured engine package are fine.
		"other/other.go": `package other

import "time"

func Wall() time.Time { return time.Now() }
`,
	})
	wantDiags(t, got)
}

func TestNoGoroutinesPositive(t *testing.T) {
	got := runFixture(t, engineCfg(), map[string]string{
		"engine/engine.go": `package engine

func Spawn(ch chan int) {
	go func() { ch <- 1 }()
}
`,
	})
	wantDiags(t, got, "engine/engine.go:4: no-goroutines")
}

func TestNoGoroutinesNegative(t *testing.T) {
	got := runFixture(t, engineCfg(), map[string]string{
		"engine/engine.go": `package engine

func Serial(fn func()) { fn() }
`,
		"transport/transport.go": `package transport

func Pump(ch chan int) {
	go func() { ch <- 1 }()
}
`,
	})
	wantDiags(t, got)
}

func TestFloatEqPositive(t *testing.T) {
	got := runFixture(t, engineCfg(), map[string]string{
		"fp/fp.go": `package fp

func Eq(a, b float64) bool  { return a == b }
func Neq(a, b float32) bool { return a != b }
`,
	})
	wantDiags(t, got,
		"fp/fp.go:3: float-eq",
		"fp/fp.go:4: float-eq",
	)
}

func TestFloatEqNegative(t *testing.T) {
	got := runFixture(t, engineCfg(), map[string]string{
		// Sentinel checks against constants, integer and string equality,
		// and float comparison outside the configured packages all pass.
		"fp/fp.go": `package fp

const One = 1.0

func Sentinel(p float64) bool { return p == 0 || p == One }
func Ints(a, b int) bool      { return a == b }
func Strs(a, b string) bool   { return a != b }
`,
		"other/other.go": `package other

func Eq(a, b float64) bool { return a == b }
`,
	})
	wantDiags(t, got)
}

func TestIgnoreDirectives(t *testing.T) {
	got := runFixture(t, engineCfg(), map[string]string{
		"engine/engine.go": `package engine

import "time"

// Trailing directives suppress their own line, standalone ones the next.
func Wall() time.Time {
	t := time.Now() //rmlint:ignore env-discipline wall-clock benchmark, not protocol time
	//rmlint:ignore env-discipline second legitimate read
	u := time.Now()
	_ = u
	return t
}
`,
	})
	wantDiags(t, got)
}

func TestIgnoreDirectiveDoesNotSuppressOtherRules(t *testing.T) {
	got := runFixture(t, engineCfg(), map[string]string{
		"engine/engine.go": `package engine

import "time"

func Wall(ch chan int) time.Time {
	//rmlint:ignore no-goroutines wrong rule for this line
	return time.Now()
}
`,
	})
	// The directive targets the wrong rule, so the finding survives — and
	// the directive itself, having suppressed nothing, is stale.
	wantDiags(t, got,
		"engine/engine.go:6: stale-ignore",
		"engine/engine.go:7: env-discipline",
	)
}

func TestBadIgnoreDirectives(t *testing.T) {
	got := runFixture(t, engineCfg(), map[string]string{
		"engine/engine.go": `package engine

//rmlint:ignore not-a-rule some reason
func A() {}

//rmlint:ignore env-discipline
func B() {}

//rmlint:ignore mutex-discipline a deleted rule suppresses nothing
func C() {}

//rmlint:ignore hotpath-alloc a deleted rule suppresses nothing
func D() {}
`,
	})
	// A directive naming a rule rmlint no longer has (mutex-discipline,
	// hotpath-alloc) is reported like any other unknown rule, not silently
	// accepted.
	wantDiags(t, got,
		"engine/engine.go:3: bad-ignore",
		"engine/engine.go:6: bad-ignore",
		"engine/engine.go:9: bad-ignore",
		"engine/engine.go:12: bad-ignore",
	)
}

func TestDefaultConfigCoversEnginePackages(t *testing.T) {
	cfg := DefaultConfig()
	for _, rel := range []string{"internal/core", "internal/layered", "internal/simnet", "internal/figures"} {
		if !pathIn(rel, cfg.EnvPackages) {
			t.Errorf("%s missing from EnvPackages", rel)
		}
		if !pathIn(rel, cfg.GoroutineFreePackages) {
			t.Errorf("%s missing from GoroutineFreePackages", rel)
		}
	}
	// The Monte-Carlo engines joined the goroutine-free set in PR 3.
	for _, rel := range []string{"internal/sim", "internal/loss"} {
		if !pathIn(rel, cfg.GoroutineFreePackages) {
			t.Errorf("%s missing from GoroutineFreePackages", rel)
		}
	}
	if !pathIn("internal/udpcast", cfg.EnvPackages) {
		t.Error("internal/udpcast missing from EnvPackages (its wall-clock use must stay annotated)")
	}
	if pathIn("internal/udpcast", cfg.GoroutineFreePackages) {
		t.Error("internal/udpcast is a transport; it owns goroutines by design")
	}
	if pathIn("internal/mcrun", cfg.GoroutineFreePackages) {
		t.Error("internal/mcrun is the parallel point runner; it owns the worker goroutines by design")
	}
	// PR 5: the sender's encode-ahead pool joined mcrun as a documented
	// goroutine-owning exemption.
	if pathIn("internal/pipeline", cfg.GoroutineFreePackages) {
		t.Error("internal/pipeline is the encode-ahead worker pool; it owns the worker goroutines by design")
	}
}

// TestGoroutineExemptPipelinePackage is the PR-5 companion fixture to the
// runner exemption below: a worker pool spelled identically is flagged in
// an engine package but tolerated in the pipeline package, which — like
// mcrun — is exempt by omission from GoroutineFreePackages. The engine
// finding proves the exemption is the package, not the pattern.
func TestGoroutineExemptPipelinePackage(t *testing.T) {
	src := `package %s

func Workers(n int, run func(i int), jobs chan int) {
	for w := 0; w < n; w++ {
		go func() {
			for i := range jobs {
				run(i)
			}
		}()
	}
}
`
	got := runFixture(t, Config{GoroutineFreePackages: []string{"engine"}}, map[string]string{
		"engine/engine.go":     fmt.Sprintf(src, "engine"),
		"pipeline/pipeline.go": fmt.Sprintf(src, "pipeline"),
	})
	wantDiags(t, got, "engine/engine.go:5: no-goroutines")
}

// TestGoroutineExemptRunnerPackage is the PR-3 fixture: an identical go
// statement is flagged inside an engine package but not inside the
// exempted runner package that parallelises above the engines.
func TestGoroutineExemptRunnerPackage(t *testing.T) {
	src := `package %s

func Fan(fns []func()) {
	for _, fn := range fns {
		go fn()
	}
}
`
	got := runFixture(t, Config{GoroutineFreePackages: []string{"engine"}}, map[string]string{
		"engine/engine.go": fmt.Sprintf(src, "engine"),
		"runner/runner.go": fmt.Sprintf(src, "runner"),
	})
	wantDiags(t, got, "engine/engine.go:5: no-goroutines")
}

func docCfg() Config {
	return Config{DocPackagePrefixes: []string{"internal/"}}
}

func TestDocCommentPositive(t *testing.T) {
	got := runFixture(t, docCfg(), map[string]string{
		// No package comment, undocumented exports of every kind.
		"internal/api/api.go": `package api

func Exported() {}

type Thing struct{}

const Limit = 7

var Count int

func (t Thing) Method() {}
`,
	})
	wantDiags(t, got,
		"internal/api/api.go:1: doc-comment",  // package comment
		"internal/api/api.go:3: doc-comment",  // Exported
		"internal/api/api.go:5: doc-comment",  // Thing
		"internal/api/api.go:7: doc-comment",  // Limit
		"internal/api/api.go:9: doc-comment",  // Count
		"internal/api/api.go:11: doc-comment", // Method
	)
}

func TestDocCommentNegative(t *testing.T) {
	got := runFixture(t, docCfg(), map[string]string{
		"internal/api/api.go": `// Package api is documented.
package api

// Exported is documented.
func Exported() {}

// Thing is documented.
type Thing struct{}

// Group comments cover every spec inside the group.
const (
	Limit = 7
	Cap   = 9
)

// Trailing line comments count too.
var (
	Count int // documented inline
)

// Method is documented.
func (t Thing) Method() {}

// unexported declarations need no docs, and exported methods on
// unexported types are not package API.
type helper struct{}

func (h helper) Visible() {}

func internalOnly() {}
`,
		// Packages outside the configured prefix are exempt entirely.
		"other/other.go": `package other

func Undocumented() {}
`,
	})
	wantDiags(t, got)
}

func TestDocCommentPackageCommentInAnyFile(t *testing.T) {
	got := runFixture(t, docCfg(), map[string]string{
		"internal/api/doc.go": `// Package api carries its comment in doc.go.
package api
`,
		"internal/api/api.go": `package api

// Exported is documented.
func Exported() {}
`,
	})
	wantDiags(t, got)
}

func TestDocCommentIgnoreDirective(t *testing.T) {
	got := runFixture(t, docCfg(), map[string]string{
		"internal/api/api.go": `// Package api is documented.
package api

//rmlint:ignore doc-comment generated shim, documented at the generator
func Exported() {}
`,
	})
	wantDiags(t, got)
}

func TestDefaultConfigCoversInternalDocs(t *testing.T) {
	cfg := DefaultConfig()
	for _, rel := range []string{"internal/core", "internal/metrics", "internal/lint"} {
		if !pathHasPrefix(rel, cfg.DocPackagePrefixes) {
			t.Errorf("%s not covered by DocPackagePrefixes", rel)
		}
	}
	if pathHasPrefix("cmd/npsend", cfg.DocPackagePrefixes) {
		t.Error("cmd/ should not be covered by DocPackagePrefixes")
	}
}

// TestBuildConstraintsSelectOnePlatform proves the loader filters files
// through go/build's constraint evaluation: per-platform implementations
// of one symbol (//go:build tags and _GOOS filename suffixes) must
// type-check as this platform's coherent file set, not collide as
// redeclarations.
func TestBuildConstraintsSelectOnePlatform(t *testing.T) {
	foreign := "windows"
	if runtime.GOOS == "windows" {
		foreign = "linux"
	}
	got := runFixture(t, Config{}, map[string]string{
		"tp/tp.go": `// Package tp has per-platform sendpath implementations.
package tp

// Send uses the platform fast path.
func Send() int { return fastpath() }
`,
		"tp/fast_linux.go": `//go:build linux

package tp

func fastpath() int { return 1 }
`,
		"tp/fast_other.go": `//go:build !linux

package tp

func fastpath() int { return 0 }
`,
		"tp/deep_" + foreign + ".go": `package tp

func fastpath() int { return 2 } // would redeclare if filename tags were ignored
`,
	})
	wantDiags(t, got) // no type-error findings: exactly one fastpath survives
}
