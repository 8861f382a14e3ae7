package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Shared package-level-state classifier for globalmut and stagedeps.
//
// A package-level variable in a flow-deterministic package is acceptable in
// exactly three shapes:
//
//   - read-only: initialized at declaration (or in init) and never written
//     afterwards — a constant table like flow.clockCalibration;
//   - sync primitive: a sync.Mutex/RWMutex/Once/WaitGroup, which carries
//     synchronization rather than result-bearing data;
//   - key-addressed once cell: the liberty.Default / flow.generated shape —
//     either a bare value published exactly once inside a sync.Once.Do
//     callback, or a mutex-guarded map whose entries each own a sync.Once
//     and whose payload fields are written only inside that Once's Do.
//
// Everything else is mutable ambient state: its value depends on which flows
// ran before, so it can leak one config's history into another's result — the
// cache-entry-mutated-after-publication bug class.
type globalClass int

const (
	gcReadOnly globalClass = iota
	gcSync
	gcOncePublished // bare var, all writes inside a sync.Once.Do callback
	gcGuardedMap    // mutex-guarded map of once-cell entries
	gcMutable
)

func (c globalClass) String() string {
	switch c {
	case gcReadOnly:
		return "read-only"
	case gcSync:
		return "sync primitive"
	case gcOncePublished:
		return "once-published"
	case gcGuardedMap:
		return "guarded once-cell map"
	}
	return "mutable"
}

// globalAccess is one read or write site of a package-level variable.
type globalAccess struct {
	pos token.Pos
	// fn is the enclosing function declaration (nil at package scope).
	fn *ast.FuncDecl
	// inDoLit marks accesses lexically inside a func literal passed to
	// sync.Once.Do.
	inDoLit bool
}

type globalInfo struct {
	v     *types.Var
	class globalClass
	// badWrites are write sites outside every sanctioned context; non-empty
	// badWrites force gcMutable.
	badWrites []globalAccess
	reads     []globalAccess
	writes    []globalAccess // all post-init writes, sanctioned or not
}

// entryAccess is a read or write of a payload field of a once-cell struct
// (a struct type that carries a sync.Once field).
type entryAccess struct {
	pos      token.Pos
	typeName string
	field    string
	write    bool
	inDoLit  bool
	fn       *ast.FuncDecl
}

type globalState struct {
	pass *Pass
	vars map[*types.Var]*globalInfo
	// order lists the package-level vars in declaration-name order so every
	// consumer iterates deterministically.
	order []*types.Var
	// onceCells maps a named struct type carrying a sync.Once field to that
	// field.
	onceCells map[*types.Named]*types.Var
	// entryAccesses are payload-field touches of once-cell structs.
	entryAccesses []entryAccess
	// fnFacts records, per function declaration, whether it synchronizes.
	fnFacts map[*ast.FuncDecl]fnSyncFacts
}

type fnSyncFacts struct {
	locksMutex  bool // calls Lock/RLock on some sync.Mutex/RWMutex
	callsOnceDo bool // calls Do on some sync.Once
}

// classOf returns the classification of a package-level variable, or
// gcReadOnly for objects the classifier does not track (imported vars).
func (gs *globalState) classOf(obj types.Object) globalClass {
	v, ok := obj.(*types.Var)
	if !ok {
		return gcReadOnly
	}
	if info := gs.vars[v]; info != nil {
		return info.class
	}
	return gcReadOnly
}

// classifyGlobals builds the package's global-state model: every package-level
// variable with its access sites and final classification, plus all payload
// accesses of once-cell struct types.
func classifyGlobals(p *Pass) *globalState {
	gs := &globalState{
		pass:      p,
		vars:      map[*types.Var]*globalInfo{},
		onceCells: map[*types.Named]*types.Var{},
		fnFacts:   map[*ast.FuncDecl]fnSyncFacts{},
	}
	scope := p.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		v, ok := scope.Lookup(name).(*types.Var)
		if !ok {
			continue
		}
		info := &globalInfo{v: v}
		switch syncTypeName(v.Type()) {
		case "Mutex", "RWMutex", "Once", "WaitGroup":
			info.class = gcSync // pure synchronization, no result-bearing payload
		}
		gs.vars[v] = info
		gs.order = append(gs.order, v)
	}
	gs.findOnceCells()
	for _, fd := range p.Pkg.Funcs {
		gs.fnFacts[fd.Decl] = syncFactsOf(p, fd.Decl.Body)
	}
	for _, fd := range p.Pkg.Funcs {
		// init-time writes are initialization: they run before any flow and
		// in a deterministic order.
		if fd.Decl.Name.Name != "init" {
			gs.walk(fd.Decl.Body, &globalAccess{fn: fd.Decl})
		}
	}
	gs.finalize()
	return gs
}

// findOnceCells records every named struct type of the package that embeds a
// sync.Once field.
func (gs *globalState) findOnceCells() {
	scope := gs.pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if syncTypeName(st.Field(i).Type()) == "Once" {
				gs.onceCells[named] = st.Field(i)
				break
			}
		}
	}
}

// walk records global and once-cell accesses under the given lexical context.
// ctx carries the enclosing function and whether we are inside a Once.Do
// callback; it is copied, never mutated, when entering a Do literal.
func (gs *globalState) walk(n ast.Node, ctx *globalAccess) {
	p := gs.pass
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				gs.writeSite(lhs, ctx, n.Tok != token.DEFINE)
			}
			for _, rhs := range n.Rhs {
				gs.walk(rhs, ctx)
			}
			// Index/selector sub-expressions of the LHS (keys, receivers) are
			// reads; writeSite already handled the written root.
			for _, lhs := range n.Lhs {
				gs.walkLHSReads(lhs, ctx)
			}
			return false
		case *ast.IncDecStmt:
			gs.writeSite(n.X, ctx, true)
			gs.walkLHSReads(n.X, ctx)
			return false
		case *ast.CallExpr:
			if isBuiltin(p, n, "delete") && len(n.Args) > 0 {
				gs.writeSite(n.Args[0], ctx, true)
			}
			if isOnceDoCall(p, n) {
				gs.walk(n.Fun, ctx)
				for _, a := range n.Args {
					if lit, ok := a.(*ast.FuncLit); ok {
						inner := *ctx
						inner.inDoLit = true
						gs.walk(lit.Body, &inner)
					} else {
						gs.walk(a, ctx)
					}
				}
				return false
			}
			return true
		case *ast.SelectorExpr:
			gs.entrySite(n, ctx, false)
			gs.readIdentIn(n, ctx)
			return false
		case *ast.Ident:
			gs.readSite(n, ctx)
			return false
		}
		return true
	})
}

// walkLHSReads records the read parts of an lvalue (index keys, the container
// of an element store) without re-counting the written root as a read.
func (gs *globalState) walkLHSReads(lhs ast.Expr, ctx *globalAccess) {
	switch l := lhs.(type) {
	case *ast.IndexExpr:
		gs.walk(l.Index, ctx)
		gs.walkLHSReads(l.X, ctx)
	case *ast.SelectorExpr:
		gs.walkLHSReads(l.X, ctx)
	case *ast.StarExpr:
		gs.walk(l.X, ctx)
	case *ast.ParenExpr:
		gs.walkLHSReads(l.X, ctx)
	}
}

// writeSite classifies one lvalue as a write of its root object and, for
// selector stores, as a once-cell payload write.
func (gs *globalState) writeSite(lhs ast.Expr, ctx *globalAccess, isWrite bool) {
	if !isWrite {
		// := defines; but a define with a global on the LHS cannot happen at
		// function scope, so nothing to record.
		return
	}
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		gs.entrySite(sel, ctx, true)
	}
	root := rootObj(gs.pass, lhs)
	v, ok := root.(*types.Var)
	if !ok {
		return
	}
	info := gs.vars[v]
	if info == nil || info.class == gcSync {
		return
	}
	acc := globalAccess{pos: lhs.Pos(), fn: ctx.fn, inDoLit: ctx.inDoLit}
	info.writes = append(info.writes, acc)
	if !gs.sanctionedWrite(v, acc) {
		info.badWrites = append(info.badWrites, acc)
	}
}

// sanctionedWrite reports whether a write site fits one of the two allowed
// mutation contexts: inside a sync.Once.Do callback, or a store into a
// once-cell map while the enclosing function holds a mutex.
func (gs *globalState) sanctionedWrite(v *types.Var, acc globalAccess) bool {
	if acc.inDoLit {
		return true
	}
	if gs.isOnceCellMap(v.Type()) && acc.fn != nil && gs.fnFacts[acc.fn].locksMutex {
		return true
	}
	return false
}

// isOnceCellMap reports whether t is a map whose element type is (a pointer
// to) a once-cell struct.
func (gs *globalState) isOnceCellMap(t types.Type) bool {
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	elem := derefType(m.Elem())
	named, ok := elem.(*types.Named)
	if !ok {
		return false
	}
	_, ok = gs.onceCells[named]
	return ok
}

// entrySite records a read or write of a once-cell payload field.
func (gs *globalState) entrySite(sel *ast.SelectorExpr, ctx *globalAccess, write bool) {
	p := gs.pass
	selection := p.Pkg.Info.Selections[sel]
	if selection == nil {
		return
	}
	f, ok := selection.Obj().(*types.Var)
	if !ok || !f.IsField() {
		return
	}
	named, ok := derefType(selection.Recv()).(*types.Named)
	if !ok {
		return
	}
	onceField, isCell := gs.onceCells[named]
	if !isCell || f == onceField {
		return
	}
	gs.entryAccesses = append(gs.entryAccesses, entryAccess{
		pos:      sel.Pos(),
		typeName: named.Obj().Name(),
		field:    f.Name(),
		write:    write,
		inDoLit:  ctx.inDoLit,
		fn:       ctx.fn,
	})
}

// readSite records an identifier use of a package-level variable.
func (gs *globalState) readSite(id *ast.Ident, ctx *globalAccess) {
	v, ok := gs.pass.ObjectOf(id).(*types.Var)
	if !ok {
		return
	}
	info := gs.vars[v]
	if info == nil || info.class == gcSync {
		return
	}
	info.reads = append(info.reads, globalAccess{pos: id.Pos(), fn: ctx.fn, inDoLit: ctx.inDoLit})
}

// readIdentIn scans a selector chain for global identifier uses (the X side;
// the Sel side is a field or method name, never a variable).
func (gs *globalState) readIdentIn(sel *ast.SelectorExpr, ctx *globalAccess) {
	gs.walk(sel.X, ctx)
}

// finalize settles each variable's class from its recorded accesses.
func (gs *globalState) finalize() {
	for _, v := range gs.order {
		info := gs.vars[v]
		if info.class == gcSync {
			continue
		}
		switch {
		case len(info.writes) == 0:
			info.class = gcReadOnly
		case len(info.badWrites) > 0:
			info.class = gcMutable
		case gs.isOnceCellMap(v.Type()):
			info.class = gcGuardedMap
		default:
			info.class = gcOncePublished
		}
	}
}

// syncFactsOf computes whether a body calls mutex Lock or once Do anywhere.
func syncFactsOf(p *Pass, body *ast.BlockStmt) fnSyncFacts {
	var facts fnSyncFacts
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			typ, method, _, _ := syncCall(p, call)
			switch {
			case isMutex(typ) && (method == "Lock" || method == "RLock"):
				facts.locksMutex = true
			case typ == "Once" && method == "Do":
				facts.callsOnceDo = true
			}
		}
		return true
	})
	return facts
}

// isOnceDoCall recognizes <expr>.Do(...) on a sync.Once.
func isOnceDoCall(p *Pass, call *ast.CallExpr) bool {
	typ, method, _, _ := syncCall(p, call)
	return typ == "Once" && method == "Do"
}
