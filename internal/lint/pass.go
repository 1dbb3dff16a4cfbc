package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// callSite is one static call expression plus the package whose type info
// resolves its arguments.
type callSite struct {
	pkg  *Package
	call *ast.CallExpr
}

// ignoreEntry is one parsed //rmlint:ignore directive. used flips when the
// directive suppresses a finding; directives that stay unused are
// themselves reported under stale-ignore.
type ignoreEntry struct {
	pos  token.Position
	rule string
	used bool
}

// facts is the module-wide fact store every rule consumes: closure
// bindings, parameter ownership and call sites (the call graph), and the
// ignore-directive index. It is built in one shared traversal per Run.
type facts struct {
	mod *Module

	// Closure bindings: local variable -> the func literal assigned to it,
	// and the reverse, so label values flowing through helper closures
	// (tx := func(kind string) ... ; tx("data")) resolve statically.
	litOf    map[types.Object]*ast.FuncLit
	varOfLit map[*ast.FuncLit]types.Object

	// Parameter ownership: parameter object -> the callable declaring it.
	paramFunc map[types.Object]*types.Func
	paramLit  map[types.Object]*ast.FuncLit

	// Call sites indexed by callee: declared functions/methods, and
	// closure-bound variables (calls spelled through the variable).
	callsOfFunc map[*types.Func][]callSite
	callsOfVar  map[types.Object][]callSite

	// ignores[file][line][rule] holds the directives covering that line (a
	// directive covers its own line and the next).
	ignores    map[string]map[int]map[string][]*ignoreEntry
	allIgnores []*ignoreEntry
	badIgnores []Diagnostic
}

// buildFacts runs the shared traversal over every package of the module.
func buildFacts(mod *Module) *facts {
	fx := &facts{
		mod:         mod,
		litOf:       make(map[types.Object]*ast.FuncLit),
		varOfLit:    make(map[*ast.FuncLit]types.Object),
		paramFunc:   make(map[types.Object]*types.Func),
		paramLit:    make(map[types.Object]*ast.FuncLit),
		callsOfFunc: make(map[*types.Func][]callSite),
		callsOfVar:  make(map[types.Object][]callSite),
		ignores:     make(map[string]map[int]map[string][]*ignoreEntry),
	}
	for _, p := range mod.Pkgs {
		fx.parseIgnores(p)
		for _, f := range p.Files {
			fx.collect(p, f)
		}
	}
	return fx
}

// collect indexes one file: parameter ownership, closure bindings, and
// every call site.
func (fx *facts) collect(p *Package, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			obj, _ := p.Info.Defs[x.Name].(*types.Func)
			if obj != nil {
				fx.recordParams(p, x.Type, func(o types.Object) { fx.paramFunc[o] = obj })
			}
		case *ast.FuncLit:
			fx.recordParams(p, x.Type, func(o types.Object) { fx.paramLit[o] = x })
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, rhs := range x.Rhs {
					lit, ok := rhs.(*ast.FuncLit)
					if !ok {
						continue
					}
					if id, ok := x.Lhs[i].(*ast.Ident); ok {
						fx.bindLit(p, id, lit)
					}
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i, v := range x.Values {
					if lit, ok := v.(*ast.FuncLit); ok {
						fx.bindLit(p, x.Names[i], lit)
					}
				}
			}
		case *ast.CallExpr:
			fx.indexCall(p, x)
		}
		return true
	})
}

// bindLit associates a variable with the func literal assigned to it.
func (fx *facts) bindLit(p *Package, id *ast.Ident, lit *ast.FuncLit) {
	obj := p.Info.Defs[id]
	if obj == nil {
		obj = p.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	fx.litOf[obj] = lit
	fx.varOfLit[lit] = obj
}

// indexCall records the call under its statically resolved callee.
func (fx *facts) indexCall(p *Package, call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := p.Info.Uses[fun].(type) {
		case *types.Func:
			fx.callsOfFunc[obj] = append(fx.callsOfFunc[obj], callSite{p, call})
		case *types.Var:
			fx.callsOfVar[obj] = append(fx.callsOfVar[obj], callSite{p, call})
		}
	case *ast.SelectorExpr:
		if obj, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			fx.callsOfFunc[obj] = append(fx.callsOfFunc[obj], callSite{p, call})
		}
	}
}

// recordParams feeds each named parameter object of ft to record.
func (fx *facts) recordParams(p *Package, ft *ast.FuncType, record func(types.Object)) {
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				record(obj)
			}
		}
	}
}

const ignorePrefix = "//rmlint:ignore"

// parseIgnores scans a package's comments for //rmlint:ignore directives,
// indexing well-formed ones (a directive covers its own line and the line
// below) and reporting malformed ones under bad-ignore.
func (fx *facts) parseIgnores(p *Package) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
				switch {
				case len(fields) == 0:
					fx.badIgnores = append(fx.badIgnores, Diagnostic{pos, "bad-ignore",
						"ignore directive names no rule; use //rmlint:ignore <rule> <reason>"})
				case !knownRule(fields[0]):
					fx.badIgnores = append(fx.badIgnores, Diagnostic{pos, "bad-ignore",
						fmt.Sprintf("unknown rule %q in ignore directive", fields[0])})
				case len(fields) == 1:
					fx.badIgnores = append(fx.badIgnores, Diagnostic{pos, "bad-ignore",
						fmt.Sprintf("ignore directive for %s has no reason; say why the invariant does not apply", fields[0])})
				default:
					e := &ignoreEntry{pos: pos, rule: fields[0]}
					fx.allIgnores = append(fx.allIgnores, e)
					for _, line := range []int{pos.Line, pos.Line + 1} {
						lines := fx.ignores[pos.Filename]
						if lines == nil {
							lines = make(map[int]map[string][]*ignoreEntry)
							fx.ignores[pos.Filename] = lines
						}
						if lines[line] == nil {
							lines[line] = make(map[string][]*ignoreEntry)
						}
						lines[line][fields[0]] = append(lines[line][fields[0]], e)
					}
				}
			}
		}
	}
}

// suppress reports whether d is covered by an ignore directive, marking
// every covering directive used.
func (fx *facts) suppress(d Diagnostic) bool {
	es := fx.ignores[d.Pos.Filename][d.Pos.Line][d.Rule]
	for _, e := range es {
		e.used = true
	}
	return len(es) > 0
}

// staleIgnores reports every directive that suppressed nothing.
func (fx *facts) staleIgnores() []Diagnostic {
	var out []Diagnostic
	for _, e := range fx.allIgnores {
		if !e.used {
			out = append(out, Diagnostic{e.pos, "stale-ignore",
				fmt.Sprintf("ignore directive for %s suppresses nothing on this or the next line; remove it", e.rule)})
		}
	}
	return out
}

// stringValues statically resolves e to its possible string values. It
// folds constants first; a parameter resolves through every static call
// site of its declaring function or closure-bound literal, to bounded
// depth. The bool result is false when any path fails to resolve.
func (fx *facts) stringValues(p *Package, e ast.Expr, depth int) ([]string, bool) {
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return []string{constant.StringVal(tv.Value)}, true
	}
	if depth <= 0 {
		return nil, false
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		return nil, false
	}
	var sites []callSite
	idx := -1
	switch {
	case fx.paramFunc[obj] != nil:
		fn := fx.paramFunc[obj]
		sites = fx.callsOfFunc[fn]
		idx = paramIndexOfFunc(fn, obj)
	case fx.paramLit[obj] != nil:
		lit := fx.paramLit[obj]
		bound := fx.varOfLit[lit]
		if bound == nil {
			return nil, false
		}
		sites = fx.callsOfVar[bound]
		idx = paramIndexOfLit(fx, lit, obj)
	default:
		return nil, false
	}
	if idx < 0 || len(sites) == 0 {
		return nil, false
	}
	seen := make(map[string]bool)
	var out []string
	for _, s := range sites {
		if s.call.Ellipsis.IsValid() || idx >= len(s.call.Args) {
			return nil, false
		}
		vs, ok := fx.stringValues(s.pkg, s.call.Args[idx], depth-1)
		if !ok {
			return nil, false
		}
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out, true
}

// paramIndexOfFunc returns obj's position in fn's parameter list.
func paramIndexOfFunc(fn *types.Func, obj types.Object) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return i
		}
	}
	return -1
}

// paramIndexOfLit returns obj's position in a func literal's parameters.
func paramIndexOfLit(fx *facts, lit *ast.FuncLit, obj types.Object) int {
	i := 0
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if fx.paramLit[obj] == lit && name.Name == obj.Name() && name.Pos() == obj.Pos() {
				return i
			}
			i++
		}
	}
	return -1
}
