package vet

import (
	"cmp"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// The analysis kernel: the resolvers every analyzer shares, so each question
// — which function does this call name, is this a sync type, where is the
// manifest, which order do these keys go in — has exactly one answer in the
// suite. The function index lives with the loader (Package.Funcs,
// Package.Body, Module.declOf); directive scanning and suppressed reporting
// live in suppress.go.

// staticCallee resolves a call to the function or method it statically
// names, or nil for calls through function values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// inspectReachable runs visit over every node of root's body and of the
// bodies of the same-package functions root transitively calls statically,
// each function once.
func inspectReachable(p *Pass, root *types.Func, visit func(ast.Node)) {
	seen := map[*types.Func]bool{}
	work := []*types.Func{root}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		body := p.Pkg.Body(fn)
		if seen[fn] || body == nil {
			continue
		}
		seen[fn] = true
		ast.Inspect(body, func(n ast.Node) bool {
			visit(n)
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := staticCallee(p.Pkg.Info, call); callee != nil && callee.Pkg() == p.Pkg.Types {
					work = append(work, callee)
				}
			}
			return true
		})
	}
}

// indexMentions reports whether an index expression on target's access path
// mentions an identifier whose object satisfies pred — the partition test
// behind per-spawn (godisc) and per-iteration (parsafe) writes.
func indexMentions(p *Pass, target ast.Expr, pred func(types.Object) bool) bool {
	found := false
	ast.Inspect(target, func(n ast.Node) bool {
		if ix, ok := n.(*ast.IndexExpr); ok {
			ast.Inspect(ix.Index, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pred(p.Pkg.Info.Uses[id]) {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// syncTypeName returns the name of the sync package type t is or points to
// (Mutex, RWMutex, Once, WaitGroup, ...), or "" for any other type.
func syncTypeName(t types.Type) string {
	n, ok := derefType(t).(*types.Named)
	if !ok {
		return ""
	}
	if o := n.Obj(); o.Pkg() != nil && o.Pkg().Path() == "sync" {
		return o.Name()
	}
	return ""
}

// isMutex reports whether a sync type name is a lock.
func isMutex(typ string) bool { return typ == "Mutex" || typ == "RWMutex" }

// syncCall resolves a method call on a sync primitive: the receiver's type
// name (WaitGroup, Mutex, RWMutex, Once, ...), the method, and the receiver
// expression. Promoted methods on embedded primitives resolve too.
func syncCall(p *Pass, call *ast.CallExpr) (typ, method string, base ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", nil, false
	}
	f := staticCallee(p.Pkg.Info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", "", nil, false
	}
	sig, isSig := f.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", nil, false
	}
	if typ = syncTypeName(sig.Recv().Type()); typ == "" {
		return "", "", nil, false
	}
	return typ, f.Name(), sel.X, true
}

// manifestLit finds the package-level `var <name> = <composite literal>`
// declaration every manifest the suite reads has (StageKeys, ParLoops,
// WireTypes). id is nil when the package declares no such initialized var;
// lit is nil when the initializer is not a composite literal. Each analyzer
// words its own diagnostics about the literal's shape.
func manifestLit(pkg *Package, name string) (id *ast.Ident, lit *ast.CompositeLit) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, nm := range vs.Names {
					if nm.Name == name && i < len(vs.Values) {
						lit, _ := vs.Values[i].(*ast.CompositeLit)
						return nm, lit
					}
				}
			}
		}
	}
	return nil, nil
}

// constString returns the value of a string constant expression.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// sortedKeys returns the keys of m sorted by order — the one way
// the suite turns a map into a deterministic sequence.
func sortedKeys[K comparable, V any](m map[K]V, order func(a, b K) int) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, order)
	return out
}

// byNameThenPos orders objects by name, then declaration position.
func byNameThenPos(a, b types.Object) int {
	if c := strings.Compare(a.Name(), b.Name()); c != 0 {
		return c
	}
	return cmp.Compare(a.Pos(), b.Pos())
}

func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// rootObj resolves the base identifier of an lvalue chain (a.b[i].c → a).
func rootObj(p *Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return p.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isBuiltin(p *Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := p.ObjectOf(id).(*types.Builtin)
	return isB
}
