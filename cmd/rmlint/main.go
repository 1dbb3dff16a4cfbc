// Command rmlint is the project's static analyzer. It loads the module
// containing the working directory, type-checks it with the standard
// library only (no network, no compiled artifacts), and enforces the
// engine invariants that keep the paper's figures reproducible:
//
//	rmlint ./...               # whole module (the usual CI invocation)
//	rmlint ./internal/core     # one package (analysis still spans the module)
//	rmlint -rules              # list rules and what they guard
//	rmlint -metrics-schema     # print the derived static metrics series set
//
// Findings print as "file:line: rule: message" and make the exit status 1;
// a clean tree exits 0 and loader/usage failures exit 2. Type-checker
// failures are findings too (rule type-error), so a broken tree can never
// look clean. Suppress a single finding with
// //rmlint:ignore <rule> <reason> on or directly above the line.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rmfec/internal/lint"
)

func main() {
	listRules := flag.Bool("rules", false, "list the enforced rules and exit")
	metricsSchema := flag.Bool("metrics-schema", false, "print the derived static metrics series set and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rmlint [-rules] [-metrics-schema] [packages]\n\npackages are module-relative dirs or ./... (default)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listRules {
		for _, r := range lint.Rules() {
			fmt.Printf("%-18s %s\n", r.Name, r.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		fatal(err)
	}

	if *metricsSchema {
		schema, diags := lint.MetricsSchema(mod)
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
		for _, id := range schema {
			fmt.Println(id)
		}
		return
	}

	// Analysis always spans the whole module (stale-ignore and the metrics
	// schema reconciliation are only sound globally); the package patterns
	// select which findings are displayed. Module-wide findings — the
	// schema file, loader errors without a position — only surface when
	// the whole module is selected.
	selected, all, err := selectDirs(mod, root, cwd, flag.Args())
	if err != nil {
		fatal(err)
	}
	diags := lint.Run(mod, lint.DefaultConfig())
	if !all {
		kept := diags[:0]
		for _, d := range diags {
			dir := filepath.ToSlash(filepath.Dir(d.Pos.Filename))
			if dir == "." {
				dir = ""
			}
			if selected[dir] {
				kept = append(kept, d)
			}
		}
		diags = kept
	}

	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rmlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// selectDirs resolves command-line patterns to the set of module-relative
// package dirs whose findings are displayed. all is true when the
// selection covers the entire module.
func selectDirs(mod *lint.Module, root, cwd string, patterns []string) (map[string]bool, bool, error) {
	if len(patterns) == 0 {
		return nil, true, nil
	}
	selected := make(map[string]bool)
	for _, pat := range patterns {
		recursive := false
		if pat == "all" {
			pat, recursive = ".", true
		}
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			pat, recursive = strings.TrimSuffix(rest, "/"), true
			if pat == "" {
				pat = "."
			}
		}
		abs := pat
		if !filepath.IsAbs(pat) {
			abs = filepath.Join(cwd, pat)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return nil, false, fmt.Errorf("rmlint: %s is outside module %s", pat, mod.Path)
		}
		if rel == "." {
			rel = ""
		}
		rel = filepath.ToSlash(rel)
		if recursive && rel == "" {
			return nil, true, nil
		}
		matched := false
		for _, p := range mod.Pkgs {
			if p.Rel == rel || (recursive && strings.HasPrefix(p.Rel, rel+"/")) {
				selected[p.Rel] = true
				matched = true
			}
		}
		if !matched {
			return nil, false, fmt.Errorf("rmlint: no packages match %s", pat)
		}
	}
	return selected, false, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
