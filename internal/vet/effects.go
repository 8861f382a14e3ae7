package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the shared interprocedural read/write-set engine behind
// stagedeps and parsafe. stagedeps consumes the read side: the Config fields
// and package-level variables a function transitively touches. parsafe also
// needs the write side — which globals and which pointer-shaped parameters a
// callee mutates, and whether it draws from math/rand — because those are the
// facts that decide whether one loop iteration can observe another.
//
// Summaries are per same-package *types.Func and memoized; recursion through
// a call cycle yields the partial summary accumulated so far, which the
// fixpoint nature of set union makes safe: a cycle adds nothing new on the
// second visit.

// fnEffects is the transitive effect summary of one function.
type fnEffects struct {
	// allFields marks a bare whole-Config use (reads every field).
	allFields bool
	// fields are the Config struct fields read, by name.
	fields map[string]bool
	// globals are package-level variables touched (read or written), with
	// the first touch position.
	globals map[types.Object]token.Pos
	// globalWrites are package-level variables written: assigned, inc/dec'd,
	// deleted from, or handed to a same-package callee that writes them.
	globalWrites map[types.Object]token.Pos
	// paramWrites marks caller-visible writes through pointer-shaped
	// parameters: the key is the parameter index, recvIndex for the receiver.
	paramWrites map[int]token.Pos
	// rand marks a transitive math/rand draw.
	rand bool
}

// recvIndex keys the method receiver in fnEffects.paramWrites.
const recvIndex = -1

// effects memoizes per-function summaries for one package pass.
type effects struct {
	pass    *Pass
	cfgType *types.Named // nil when the package declares no Config struct
	memo    map[*types.Func]*fnEffects
	visit   map[*types.Func]bool
}

func newEffects(p *Pass, cfgType *types.Named) *effects {
	return &effects{
		pass:    p,
		cfgType: cfgType,
		memo:    map[*types.Func]*fnEffects{},
		visit:   map[*types.Func]bool{},
	}
}

// summarize returns fn's transitive effect summary, or nil for functions
// without a same-package body (and for in-progress cycle members).
func (s *effects) summarize(fn *types.Func) *fnEffects {
	if sum, ok := s.memo[fn]; ok {
		return sum
	}
	if s.visit[fn] {
		return nil
	}
	body := s.pass.Pkg.Body(fn)
	if body == nil {
		return nil
	}
	s.visit[fn] = true
	defer delete(s.visit, fn)
	sum := &fnEffects{
		fields:       map[string]bool{},
		globals:      map[types.Object]token.Pos{},
		globalWrites: map[types.Object]token.Pos{},
		paramWrites:  map[int]token.Pos{},
	}
	p := s.pass
	pkgScope := p.Pkg.Types.Scope()
	selBases := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				selBases[id] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if s.cfgType != nil {
				if sel := p.Pkg.Info.Selections[n]; sel != nil {
					if f, ok := sel.Obj().(*types.Var); ok && f.IsField() && fieldOfConfig(s.cfgType, f) {
						sum.fields[f.Name()] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if n.Tok == token.DEFINE {
					// := targets are new objects unless redeclared; a mixed
					// a, b := with an existing a writes a.
					if id, ok := lhs.(*ast.Ident); ok && p.Pkg.Info.Defs[id] != nil {
						continue
					}
				}
				s.recordWrite(sum, fn, lhs)
			}
		case *ast.IncDecStmt:
			s.recordWrite(sum, fn, n.X)
		case *ast.CallExpr:
			s.summarizeCall(sum, fn, n)
		case *ast.Ident:
			obj := p.Pkg.Info.Uses[n]
			v, ok := obj.(*types.Var)
			if !ok {
				return true
			}
			switch {
			case v.Parent() == pkgScope:
				if _, ok := sum.globals[v]; !ok {
					sum.globals[v] = n.Pos()
				}
			case s.cfgType != nil && derefType(v.Type()) == s.cfgType && !selBases[n] && !isParamOrRecv(fn, v):
				sum.allFields = true
			}
		}
		return true
	})
	s.memo[fn] = sum
	return sum
}

// summarizeCall folds one call's effects into sum: builtin writes, RNG
// draws, and the transitive summary of same-package callees (with written
// parameters mapped back onto this function's own arguments).
func (s *effects) summarizeCall(sum *fnEffects, fn *types.Func, call *ast.CallExpr) {
	p := s.pass
	switch {
	case isBuiltin(p, call, "delete") && len(call.Args) >= 1:
		s.recordWrite(sum, fn, call.Args[0])
		return
	case isBuiltin(p, call, "copy") && len(call.Args) >= 1:
		s.recordWrite(sum, fn, call.Args[0])
		return
	}
	if isRandCall(p, call) {
		sum.rand = true
		return
	}
	callee := staticCallee(p.Pkg.Info, call)
	if callee == nil || callee.Pkg() != p.Pkg.Types || callee == fn {
		return
	}
	csum := s.summarize(callee)
	if csum == nil {
		return
	}
	sum.allFields = sum.allFields || csum.allFields
	sum.rand = sum.rand || csum.rand
	for f := range csum.fields {
		sum.fields[f] = true
	}
	for obj, pos := range csum.globals {
		if _, ok := sum.globals[obj]; !ok {
			sum.globals[obj] = pos
		}
	}
	for obj := range csum.globalWrites {
		if _, ok := sum.globalWrites[obj]; !ok {
			sum.globalWrites[obj] = call.Pos()
		}
	}
	// A callee that writes through a parameter writes whatever we passed:
	// map each written callee parameter back onto our argument's root.
	for idx := range csum.paramWrites {
		if arg := callArgExpr(call, idx); arg != nil {
			s.recordWrite(sum, fn, arg)
		}
	}
}

// callArgExpr returns the expression bound to the callee's parameter idx
// (recvIndex for the receiver), or nil when it is not syntactically present.
func callArgExpr(call *ast.CallExpr, idx int) ast.Expr {
	if idx == recvIndex {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	if idx >= 0 && idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}

// recordWrite classifies a write target by its root: package-level variable,
// pointer-shaped parameter/receiver, or local (ignored — invisible to
// callers). A bare rebind of a value parameter (x = ...) mutates the callee's
// copy only, so parameter writes require either a pointer-shaped root type or
// an access path (selector/index/deref) into shared structure.
func (s *effects) recordWrite(sum *fnEffects, fn *types.Func, target ast.Expr) {
	p := s.pass
	root := rootObj(p, unwrapWriteTarget(target))
	v, ok := root.(*types.Var)
	if !ok {
		return
	}
	if v.Parent() == p.Pkg.Types.Scope() {
		if _, ok := sum.globalWrites[v]; !ok {
			sum.globalWrites[v] = target.Pos()
		}
		if _, ok := sum.globals[v]; !ok {
			sum.globals[v] = target.Pos()
		}
		return
	}
	if idx, ok := paramIndex(fn, v); ok && pointerShaped(v.Type()) {
		if _, ok := sum.paramWrites[idx]; !ok {
			sum.paramWrites[idx] = target.Pos()
		}
	}
}

// unwrapWriteTarget peels slice expressions (copy(dst[a:b], …)) so rootObj
// sees the container.
func unwrapWriteTarget(e ast.Expr) ast.Expr {
	for {
		se, ok := e.(*ast.SliceExpr)
		if !ok {
			return e
		}
		e = se.X
	}
}

// paramIndex locates v among fn's parameters (recvIndex for the receiver).
func paramIndex(fn *types.Func, v *types.Var) (int, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	if recv := sig.Recv(); recv != nil && recv == v {
		return recvIndex, true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return i, true
		}
	}
	return 0, false
}

// pointerShaped reports whether writes through a value of this type are
// visible to the caller: pointers, slices, maps, and channels share backing
// state; value structs and arrays are copies.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// isParamOrRecv reports whether v is fn's own Config parameter or receiver —
// those flow the caller's Config in, so a bare use inside fn (passing it on,
// hashing it) is attributed where fn's transitive reads land anyway, and the
// receiver of a method like DeriveSeed must not count as a whole-Config read
// on its own. A bare use that reaches data (copying into a struct) is the
// one shape this under-approximates; Config methods in this repo only read
// fields, which the selector walk sees.
func isParamOrRecv(fn *types.Func, v *types.Var) bool {
	_, ok := paramIndex(fn, v)
	return ok
}
