// Package lint implements rmlint, the project's static analyzer. The
// protocol engines reproduce the paper's NP/N2 curves only because they are
// deterministic and single-threaded behind the core.Env contract; that
// discipline used to live in comments. rmlint turns it into mechanically
// checked invariants:
//
//   - env-discipline: engine packages must not read wall-clock time
//     (time.Now/Since/Sleep/After/...) or the global math/rand RNG; all
//     time and randomness flows through core.Env (or an explicitly seeded
//     rand.New, which stays deterministic).
//   - no-goroutines: engine packages contain no go statements; concurrency
//     belongs to transports such as internal/udpcast.
//   - float-eq: model/numeric/figures code must not compare two
//     non-constant floating-point expressions with == or != (comparisons
//     against constants, e.g. p == 0 sentinel guards, are allowed).
//   - doc-comment: packages under internal/ carry a package comment and
//     doc comments on every exported declaration; the docs are where the
//     paper's definitions are pinned to the code.
//   - metrics-discipline: metrics.Registry series names are constant
//     snake_case strings, one kind per name, and the derived static series
//     set reconciles exactly against scripts/metrics_schema.txt.
//
// Allocation-freedom of the packet paths is not a rule here: the
// testing.AllocsPerRun pins beside each hot path are its contract, since
// only a measurement sees what escape analysis and interface dispatch do.
//
// Every rule consumes one shared traversal (see pass.go), which builds the
// call sites, closure bindings, parameter ownership and the
// ignore-directive index per Run.
//
// Findings can be suppressed line-by-line with
//
//	//rmlint:ignore <rule> <reason>
//
// placed on the offending line or the line directly above it. The reason is
// mandatory; a directive without one is itself reported (rule bad-ignore),
// and a directive that suppresses nothing is reported too (stale-ignore).
// Type-checker errors surface under the type-error rule; none of
// bad-ignore, stale-ignore and type-error can be suppressed.
//
// The analyzer is stdlib-only: packages are loaded with go/parser and
// type-checked with go/types, resolving module-internal imports from the
// source tree and everything else through go/importer's source importer.
package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, printed as "file:line: rule: message". The
// filename is module-relative, so output is stable across checkouts.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the conventional compiler format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Msg)
}

// Config selects which packages each rule applies to. Paths are
// module-relative package directories ("internal/core"; "" is the module
// root package). The zero Config applies env-discipline, no-goroutines and
// float-eq nowhere; metrics-discipline and the meta rules always run
// everywhere.
type Config struct {
	// EnvPackages are checked by env-discipline: the deterministic engine
	// packages plus the Env implementations whose wall-clock use must be
	// explicit (annotated) rather than accidental.
	EnvPackages []string
	// GoroutineFreePackages are checked by no-goroutines. Unlike
	// EnvPackages this excludes the transports, whose whole job is to own
	// the concurrency the engines must not have.
	GoroutineFreePackages []string
	// FloatEqPackages are checked by float-eq.
	FloatEqPackages []string
	// DocPackagePrefixes are checked by doc-comment. Entries ending in "/"
	// match whole trees ("internal/" covers every internal package); other
	// entries match one package directory exactly.
	DocPackagePrefixes []string
	// MetricsSchemaFile is the module-relative path of the pinned static
	// series set that metrics-discipline reconciles against; "" disables
	// the reconciliation (name, kind and label checks still run).
	MetricsSchemaFile string
}

// DefaultConfig returns the rule applicability for this repository.
func DefaultConfig() Config {
	return Config{
		EnvPackages: []string{
			"internal/adapt",
			"internal/core",
			"internal/field",
			"internal/layered",
			"internal/rect",
			"internal/simnet",
			"internal/figures",
			"internal/udpcast", // real-clock Env: every wall-clock read is annotated
		},
		// internal/mcrun and internal/pipeline are the deliberate
		// exemptions from this list: mcrun is the deterministic parallel
		// Monte-Carlo runner and pipeline the sender's encode-ahead worker
		// pool, and each owns ALL worker goroutines on behalf of the
		// engines around it (disjoint output slots, index-ordered
		// submission, Wait-published results — see their package docs).
		// Adding a new engine package here and routing its concurrency
		// through mcrun, pipeline or a transport is the intended pattern.
		GoroutineFreePackages: []string{
			"internal/adapt",
			"internal/core",
			"internal/field",
			"internal/layered",
			"internal/rect",
			"internal/simnet",
			"internal/figures",
			"internal/sim",
			"internal/loss",
		},
		FloatEqPackages: []string{
			"internal/model",
			"internal/numeric",
			"internal/figures",
		},
		DocPackagePrefixes: []string{
			"internal/",
		},
		MetricsSchemaFile: "scripts/metrics_schema.txt",
	}
}

func pathIn(rel string, set []string) bool {
	for _, s := range set {
		if rel == s {
			return true
		}
	}
	return false
}

// Rule is one named invariant check. A rule inspects either one package at
// a time (check) or the whole module at once (checkModule) — the latter
// for rules whose facts span packages, like the schema reconciliation.
type Rule struct {
	Name string
	Doc  string

	check       func(p *Package, cfg Config, fx *facts) []Diagnostic
	checkModule func(cfg Config, fx *facts) []Diagnostic
}

// Rules returns every suppressible rule rmlint enforces, in reporting
// order. The meta findings (bad-ignore, stale-ignore, type-error) are not
// rules in this list: they cannot be suppressed.
func Rules() []Rule {
	return []Rule{
		{
			Name:  "env-discipline",
			Doc:   "engine packages take time and randomness only from core.Env (no time.Now/Sleep/After, no global math/rand)",
			check: func(p *Package, cfg Config, fx *facts) []Diagnostic { return checkEnvDiscipline(p, cfg) },
		},
		{
			Name:  "no-goroutines",
			Doc:   "engine packages contain no go statements; concurrency belongs to transports",
			check: func(p *Package, cfg Config, fx *facts) []Diagnostic { return checkNoGoroutines(p, cfg) },
		},
		{
			Name:  "float-eq",
			Doc:   "no ==/!= between non-constant floating-point expressions in model/numeric/figures",
			check: func(p *Package, cfg Config, fx *facts) []Diagnostic { return checkFloatEq(p, cfg) },
		},
		{
			Name:  "doc-comment",
			Doc:   "documented packages carry a package comment and doc comments on every exported declaration",
			check: func(p *Package, cfg Config, fx *facts) []Diagnostic { return checkDocComments(p, cfg) },
		},
		{
			Name:        "metrics-discipline",
			Doc:         "metrics series names are constant snake_case literals, one kind per name, reconciled against scripts/metrics_schema.txt",
			checkModule: checkMetricsDiscipline,
		},
	}
}

// knownRule reports whether name is a suppressible rule, so misspelled
// ignore directives do not silently suppress nothing.
func knownRule(name string) bool {
	for _, r := range Rules() {
		if r.Name == name {
			return true
		}
	}
	return false
}

// Run builds the shared fact store over the whole module, applies every
// rule, and returns the surviving findings sorted by position. Suppressed
// findings are dropped; malformed, unknown or unused ignore directives are
// reported (bad-ignore, stale-ignore), and type-checker failures surface
// as type-error findings. Positions are module-relative.
//
// Run always analyzes the full module even when a caller only displays a
// subset: stale-ignore and the metrics schema reconciliation are only
// sound with the whole call graph in view.
func Run(mod *Module, cfg Config) []Diagnostic {
	fx := buildFacts(mod)
	out := append([]Diagnostic(nil), fx.badIgnores...)
	for _, p := range mod.Pkgs {
		for _, err := range p.TypeErrors {
			out = append(out, typeErrorDiag(err))
		}
	}
	for _, r := range Rules() {
		var found []Diagnostic
		if r.check != nil {
			for _, p := range mod.Pkgs {
				found = append(found, r.check(p, cfg, fx)...)
			}
		}
		if r.checkModule != nil {
			found = append(found, r.checkModule(cfg, fx)...)
		}
		for _, d := range found {
			if fx.suppress(d) {
				continue
			}
			out = append(out, d)
		}
	}
	out = append(out, fx.staleIgnores()...)
	for i := range out {
		out[i].Pos.Filename = moduleRelPath(mod.Root, out[i].Pos.Filename)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return out
}

// typeErrorDiag converts one type-checker complaint into a finding.
func typeErrorDiag(err error) Diagnostic {
	if te, ok := err.(types.Error); ok {
		return Diagnostic{te.Fset.Position(te.Pos), "type-error", te.Msg}
	}
	return Diagnostic{token.Position{}, "type-error", err.Error()}
}

// moduleRelPath strips the module root from an absolute filename so
// diagnostics are stable across checkouts; already-relative names (the
// loader's display names, the schema file) pass through.
func moduleRelPath(root, name string) string {
	if name == "" || !filepath.IsAbs(name) {
		return name
	}
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}
