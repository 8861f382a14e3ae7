package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags range statements over maps inside deterministic-output
// packages. Go randomizes map iteration order per process, so any map range
// whose body can leak iteration order into results breaks the byte-identity
// contract — the exact class of the netlist.AddInstance bug, where pin-map
// order decided net indices and therefore placement, wirelength and power.
//
// A site is accepted without annotation only when the body is demonstrably
// order-insensitive:
//
//   - collect-then-sort: the body only appends keys/values to slices, and
//     every such slice is sorted later in the same enclosing block;
//   - keyed stores (m2[k] = v), deletes, integer accumulation, constant
//     assignments, and per-iteration locals, all of which commute.
//
// Float accumulation (sum += m[k]) gets its own sharper diagnostic: float
// addition does not associate, so the sum's low bits follow iteration order.
// Everything else needs a //tmi3dvet:ordered <reason> suppression.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flags order-sensitive map iteration in deterministic-output packages",
	Run:  runMapOrder,
}

func runMapOrder(p *Pass) {
	if !p.Deterministic {
		return
	}
	sup := collectSuppressions(p, "ordered")
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			body, ok := blockOf(n)
			if !ok {
				return true
			}
			checkBlockMapRanges(p, sup, body.List)
			return true
		})
	}
	sup.reportStale("map range")
}

// blockOf extracts a statement list context in which collect-then-sort can
// be recognized (the sort must follow the range in the same list).
func blockOf(n ast.Node) (*ast.BlockStmt, bool) {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n, true
	case *ast.CaseClause:
		return &ast.BlockStmt{List: n.Body}, true
	case *ast.CommClause:
		return &ast.BlockStmt{List: n.Body}, true
	}
	return nil, false
}

func checkBlockMapRanges(p *Pass, sup *suppressions, stmts []ast.Stmt) {
	for i, st := range stmts {
		if ls, ok := st.(*ast.LabeledStmt); ok {
			st = ls.Stmt
		}
		rs, ok := st.(*ast.RangeStmt)
		if !ok {
			continue
		}
		t := p.TypeOf(rs.X)
		if t == nil {
			continue
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			continue
		}
		if sup.at(rs.For) != nil {
			continue // annotated site; reason enforcement happened at collect
		}
		scan := &mapBodyScan{pass: p, appended: map[types.Object]bool{}}
		// The key and value bindings are per-iteration: a store through the
		// value (v.field = …) touches only this key's data and commutes.
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := e.(*ast.Ident); ok {
				if obj := p.Pkg.Info.Defs[id]; obj != nil {
					scan.locals = append(scan.locals, obj)
				}
			}
		}
		scan.block(rs.Body)
		for _, acc := range scan.floatAcc {
			p.Reportf(acc.Pos(), "float accumulation %s across iteration of map %s: float addition is order-dependent; sort the keys first or annotate //tmi3dvet:ordered <reason>",
				ExprString(acc), ExprString(rs.X))
		}
		if len(scan.floatAcc) > 0 {
			continue // the sharper diagnostic covers the site
		}
		if node := scan.bad; node != nil {
			p.Reportf(rs.For, "iteration order of map %s can reach the output through %q: sort the keys first or annotate //tmi3dvet:ordered <reason>",
				ExprString(rs.X), strings.TrimSpace(nodeText(node)))
			continue
		}
		// Pure collect bodies must be followed by a sort of each slice.
		for obj := range scan.appended {
			if !sortedAfter(p, obj, stmts[i+1:]) {
				p.Reportf(rs.For, "map %s keys are collected into %s but never sorted in this block: sort before use or annotate //tmi3dvet:ordered <reason>",
					ExprString(rs.X), obj.Name())
				break
			}
		}
	}
}

// mapBodyScan classifies a map-range body. bad holds the first statement that
// can leak iteration order; floatAcc holds order-dependent float updates;
// appended holds slices built from the iteration (to be checked for a
// following sort).
type mapBodyScan struct {
	pass     *Pass
	appended map[types.Object]bool
	locals   []types.Object // per-iteration := definitions, writes to which commute
	bad      ast.Node
	floatAcc []ast.Expr
}

func (s *mapBodyScan) block(b *ast.BlockStmt) {
	for _, st := range b.List {
		s.stmt(st)
	}
}

func (s *mapBodyScan) flag(n ast.Node) {
	if s.bad == nil {
		s.bad = n
	}
}

func (s *mapBodyScan) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.AssignStmt:
		s.assign(st)
	case *ast.IncDecStmt:
		if !s.isLocal(rootObj(s.pass, st.X)) {
			s.commutingUpdate(st.X, st)
		}
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok && isBuiltin(s.pass, call, "delete") {
			return // removing keys commutes
		}
		s.flag(st)
	case *ast.IfStmt:
		s.block(st.Body)
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			s.block(e)
		case *ast.IfStmt:
			s.stmt(e)
		}
	case *ast.BlockStmt:
		s.block(st)
	case *ast.RangeStmt:
		// A nested range over a map is reported at its own site; over a
		// slice, its body follows the same rules as ours.
		s.block(st.Body)
	case *ast.ForStmt:
		s.block(st.Body)
	case *ast.SwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, cs := range cc.Body {
					s.stmt(cs)
				}
			}
		}
	case *ast.DeclStmt:
		// Local declarations are per-iteration temporaries.
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						if obj := s.pass.Pkg.Info.Defs[name]; obj != nil {
							s.locals = append(s.locals, obj)
						}
					}
				}
			}
		}
	case *ast.BranchStmt:
		if st.Tok != token.CONTINUE && st.Tok != token.BREAK {
			s.flag(st) // goto out of the loop with loop state
		}
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	case *ast.EmptyStmt:
	default:
		// returns inside a map range leak which key was seen first; calls,
		// sends, go/defer statements may do anything.
		s.flag(st)
	}
}

func (s *mapBodyScan) assign(st *ast.AssignStmt) {
	if st.Tok == token.DEFINE {
		// Per-iteration locals; their later uses are judged where used.
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := s.pass.Pkg.Info.Defs[id]; obj != nil {
					s.locals = append(s.locals, obj)
				}
			}
		}
		return
	}
	if st.Tok != token.ASSIGN {
		// Compound update: per-iteration locals always commute (the value
		// dies with the iteration); otherwise integers commute and floats
		// are order-dependent accumulation.
		for _, lhs := range st.Lhs {
			if s.isLocal(rootObj(s.pass, lhs)) {
				continue
			}
			if !s.commutingUpdate(lhs, st) {
				return
			}
		}
		return
	}
	for i, lhs := range st.Lhs {
		switch l := lhs.(type) {
		case *ast.IndexExpr:
			// Keyed store into a map, slice or array commutes when distinct
			// iterations hit distinct keys — the overwhelmingly common shape
			// (index inversion, grouping, per-net tables). Colliding-key
			// stores are the suppression comment's job.
			if t := s.pass.TypeOf(l.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Map, *types.Slice, *types.Array, *types.Pointer:
					continue
				}
			}
			s.flag(st)
			return
		case *ast.SelectorExpr:
			// A field store whose root is a per-iteration local (rc.R = …,
			// cc.Arcs = append(cc.Arcs, …)) touches data that dies with the
			// iteration — or, through a pointer drawn from the ranged map,
			// data owned by this iteration's key — and commutes either way.
			if s.isLocal(rootObj(s.pass, l)) {
				continue
			}
			s.flag(st)
			return
		case *ast.StarExpr:
			if s.isLocal(rootObj(s.pass, l)) {
				continue
			}
			s.flag(st)
			return
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			obj := s.pass.ObjectOf(l)
			if obj != nil && s.isLocal(obj) {
				continue
			}
			if i < len(st.Rhs) {
				rhs := st.Rhs[i]
				if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(s.pass, call, "append") && obj != nil {
					// x = append(x, ...): collection — defer judgment to the
					// sorted-after check.
					if base, ok := call.Args[0].(*ast.Ident); ok && s.pass.ObjectOf(base) == obj {
						s.appended[obj] = true
						continue
					}
				}
				if isConstExpr(s.pass, rhs) {
					continue // x = <constant> is idempotent across iterations
				}
			}
			s.flag(st)
			return
		default:
			s.flag(st)
			return
		}
	}
}

// commutingUpdate classifies x++ / x += v: integer updates commute, float
// updates are recorded as order-dependent accumulation, anything else is bad.
func (s *mapBodyScan) commutingUpdate(lhs ast.Expr, at ast.Stmt) bool {
	t := s.pass.TypeOf(lhs)
	if t == nil {
		s.flag(at)
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		s.flag(at)
		return false
	}
	switch {
	case b.Info()&types.IsInteger != 0:
		return true
	case b.Info()&(types.IsFloat|types.IsComplex) != 0:
		s.floatAcc = append(s.floatAcc, lhs)
		return true // recorded separately; don't double-flag
	default:
		s.flag(at)
		return false
	}
}

func (s *mapBodyScan) isLocal(obj types.Object) bool {
	if obj == nil {
		return false
	}
	for _, l := range s.locals {
		if l == obj {
			return true
		}
	}
	return false
}

// sortedAfter reports whether obj (a slice collected from a map range) is
// passed to a sort in the trailing statements of the block: sort.* and
// slices.* calls, any callee whose name mentions sort, or a Sort method on
// the slice itself.
func sortedAfter(p *Pass, obj types.Object, rest []ast.Stmt) bool {
	found := false
	for _, st := range rest {
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if !isSortCallee(p, call.Fun) {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := arg.(*ast.Ident); ok && p.ObjectOf(id) == obj {
					found = true
				}
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && p.ObjectOf(id) == obj {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func isSortCallee(p *Pass, fun ast.Expr) bool {
	switch fun := fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := p.ObjectOf(id).(*types.PkgName); ok {
				path := pn.Imported().Path()
				if path == "sort" || path == "slices" {
					return true
				}
			}
		}
		return strings.Contains(strings.ToLower(fun.Sel.Name), "sort")
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "sort")
	}
	return false
}

func isConstExpr(p *Pass, e ast.Expr) bool {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Value != nil
	}
	return false
}

// nodeText renders a statement head for a diagnostic (single line, bounded).
func nodeText(n ast.Node) string {
	switch n := n.(type) {
	case *ast.AssignStmt:
		var lhs []string
		for _, l := range n.Lhs {
			lhs = append(lhs, ExprString(l))
		}
		var rhs []string
		for _, r := range n.Rhs {
			rhs = append(rhs, ExprString(r))
		}
		return strings.Join(lhs, ", ") + " " + n.Tok.String() + " " + strings.Join(rhs, ", ")
	case *ast.ExprStmt:
		return ExprString(n.X)
	case *ast.ReturnStmt:
		return "return"
	case *ast.IncDecStmt:
		return ExprString(n.X) + n.Tok.String()
	case *ast.BranchStmt:
		return n.Tok.String()
	case *ast.GoStmt:
		return "go " + ExprString(n.Call.Fun) + "(…)"
	case *ast.DeferStmt:
		return "defer " + ExprString(n.Call.Fun) + "(…)"
	case *ast.SendStmt:
		return ExprString(n.Chan) + " <- " + ExprString(n.Value)
	default:
		return "statement"
	}
}
