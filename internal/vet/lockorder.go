package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds an interprocedural mutex acquisition graph per package and
// reports cycles — the AB-BA inversion class that deadlocked the serve
// daemon in PR 4 (submit() held the job-table lock while bumping counters
// that take the metrics-registry lock, while a metrics scrape held the
// registry lock and ran gauge samplers that take the job-table lock).
//
// Lock identity is abstract: a struct field of mutex type is one lock for
// every instance of the struct (conservative — merging instances can only
// add edges, never hide a real AB-BA between different locks), a
// package-level mutex is itself, and an embedded sync.Mutex is the embedding
// field. Acquisition edges come from three sources:
//
//   - intraprocedural: Lock(B) while A is held, with branch-sensitive held
//     tracking (each branch starts from a copy of the entry set; terminated
//     branches contribute nothing); defer Unlock holds to function end;
//   - interprocedural: a call to a same-package function f while holding A
//     adds A → every lock f transitively acquires (fixpoint over the static
//     call graph);
//   - escaping closures: a func literal that is stored or passed away can be
//     invoked later through any func-typed value — the metrics
//     gauge-sampler pattern — so a dynamic call made while holding A adds
//     A → every lock any escaping literal acquires.
//
// Recursive acquisition (Lock while the same abstract lock is held, directly
// or through a call chain) is reported as a self-deadlock. RLock counts as
// acquisition too — recursive RLock is a documented deadlock against a
// queued writer — but RWMutex read acquisitions are tracked as a distinct
// mode: a cycle in which every hold and every acquisition is read-mode
// cannot deadlock (readers share), so it is exempt; the moment any edge of
// the cycle involves a write Lock, the cycle is reported.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "reports cycles in the package's mutex acquisition order graph",
	Run:  runLockOrder,
}

type lockGraph struct {
	pass *Pass
	// names gives each abstract lock a stable display name.
	names map[types.Object]string
	// edges[a][b] = the acquisition of b while a was held: first position,
	// upgraded to write the moment any occurrence write-locks either side.
	edges map[types.Object]map[types.Object]*lockEdge
	fns   map[*types.Func]*fnSummary
	// escapeSums are the summaries of escaping func literals; their acquires
	// feed the escaping pool.
	escapeSums []*fnSummary
	// escaping is the union of locks acquired inside escaping literals, with
	// the strongest mode seen.
	escaping map[types.Object]acqMode
}

// lockEdge is one acquisition-order edge. write records whether any
// occurrence of the edge involved a write Lock on either end — only
// pure-read cycles are exempt from deadlock reports.
type lockEdge struct {
	pos   token.Pos
	write bool
}

// acqMode is the set of modes a lock is (transitively) acquired in.
type acqMode uint8

const (
	acqRead acqMode = 1 << iota
	acqWrite
)

type fnSummary struct {
	// acquires maps each lock this function (transitively) acquires to the
	// modes it is acquired in.
	acquires map[types.Object]acqMode
	// calls records same-package static callees with the held set at the
	// call site.
	calls []callSite
	// dynCalls records held sets at calls through func-typed values.
	dynCalls []dynSite
}

type callSite struct {
	callee *types.Func
	held   heldSet
	pos    token.Pos
}

type dynSite struct {
	held heldSet
	pos  token.Pos
}

// heldLock records where a lock was acquired and in which mode.
type heldLock struct {
	pos   token.Pos
	write bool
}

type heldSet map[types.Object]heldLock

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func unionHeld(sets []heldSet) heldSet {
	if len(sets) == 1 {
		return sets[0]
	}
	u := heldSet{}
	for _, s := range sets {
		for k, v := range s {
			if prev, ok := u[k]; !ok {
				u[k] = v
			} else if v.write && !prev.write {
				u[k] = heldLock{pos: prev.pos, write: true}
			}
		}
	}
	return u
}

func runLockOrder(p *Pass) {
	g := &lockGraph{
		pass:     p,
		names:    map[types.Object]string{},
		edges:    map[types.Object]map[types.Object]*lockEdge{},
		fns:      map[*types.Func]*fnSummary{},
		escaping: map[types.Object]acqMode{},
	}
	// Pass 1: per-function summaries, intraprocedural edges and recursive-
	// acquisition reports, escaping-literal collection.
	for _, fd := range p.Pkg.Funcs {
		if fd.Obj == nil {
			continue
		}
		sum := &fnSummary{acquires: map[types.Object]acqMode{}}
		g.fns[fd.Obj] = sum
		g.walkBody(sum, fd.Decl.Body, heldSet{})
	}
	// Pass 2: transitive-acquires fixpoint over the static call graph; the
	// escaping pool grows in the same fixpoint (an escaping literal may call
	// functions that lock), and dynamic calls pull the pool in.
	all := make([]*fnSummary, 0, len(g.fns)+len(g.escapeSums))
	for _, s := range g.fns {
		all = append(all, s)
	}
	all = append(all, g.escapeSums...)
	for changed := true; changed; {
		changed = false
		merge := func(sum *fnSummary, l types.Object, mode acqMode) {
			if sum.acquires[l]|mode != sum.acquires[l] {
				sum.acquires[l] |= mode
				changed = true
			}
		}
		for _, sum := range all {
			for _, cs := range sum.calls {
				if callee := g.fns[cs.callee]; callee != nil {
					for l, mode := range callee.acquires {
						merge(sum, l, mode)
					}
				}
			}
			if len(sum.dynCalls) > 0 {
				for l, mode := range g.escaping {
					merge(sum, l, mode)
				}
			}
		}
		for _, esc := range g.escapeSums {
			for l, mode := range esc.acquires {
				if g.escaping[l]|mode != g.escaping[l] {
					g.escaping[l] |= mode
					changed = true
				}
			}
		}
	}
	// Pass 3: interprocedural edges held × acquires(callee), and recursive
	// reacquisition through a call chain.
	for _, sum := range all {
		for _, cs := range sum.calls {
			callee := g.fns[cs.callee]
			if callee == nil {
				continue
			}
			for held, h := range cs.held {
				if callee.acquires[held] != 0 {
					p.Reportf(cs.pos, "call to %s may reacquire %s, held since %s: recursive locking self-deadlocks",
						cs.callee.Name(), g.names[held], p.Mod.Fset.Position(h.pos))
				}
				for acq, mode := range callee.acquires {
					g.addEdge(held, acq, cs.pos, h.write || mode&acqWrite != 0)
				}
			}
		}
		for _, ds := range sum.dynCalls {
			for held, h := range ds.held {
				for acq, mode := range g.escaping {
					g.addEdge(held, acq, ds.pos, h.write || mode&acqWrite != 0)
				}
			}
		}
	}
	g.reportCycles()
}

func (g *lockGraph) addEdge(a, b types.Object, pos token.Pos, write bool) {
	if a == b {
		return // recursive acquisition is reported at the site, not as a cycle
	}
	if g.edges[a] == nil {
		g.edges[a] = map[types.Object]*lockEdge{}
	}
	if e, ok := g.edges[a][b]; ok {
		// Keep the first position for stable messages; a later write
		// occurrence still upgrades the edge out of the pure-read exemption.
		e.write = e.write || write
		return
	}
	g.edges[a][b] = &lockEdge{pos: pos, write: write}
}

// walkBody analyzes statements in source order, tracking the held set. A nil
// return means the path terminated (return inside the block).
func (g *lockGraph) walkBody(sum *fnSummary, b *ast.BlockStmt, held heldSet) heldSet {
	for _, st := range b.List {
		held = g.walkStmt(sum, st, held)
		if held == nil {
			return nil
		}
	}
	return held
}

func (g *lockGraph) walkStmt(sum *fnSummary, st ast.Stmt, held heldSet) heldSet {
	switch st := st.(type) {
	case *ast.ExprStmt:
		g.walkExpr(sum, st.X, held)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			g.walkExpr(sum, r, held)
		}
	case *ast.DeferStmt:
		// defer x.Unlock() releases at return; for ordering purposes the
		// lock is held for the rest of the function, which is exactly what
		// leaving the held set untouched models. Other deferred calls run
		// with whatever is held at exit; approximate with the current set.
		if lock, op := g.mutexOp(st.Call); lock == nil || (op != "Unlock" && op != "RUnlock") {
			g.walkCall(sum, st.Call, held)
		}
	case *ast.GoStmt:
		// A goroutine does not inherit the spawner's held locks.
		g.walkCall(sum, st.Call, heldSet{})
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			g.walkExpr(sum, r, held)
		}
		return nil
	case *ast.IfStmt:
		if st.Init != nil {
			held = g.walkStmt(sum, st.Init, held)
		}
		g.walkExpr(sum, st.Cond, held)
		var exits []heldSet
		if out := g.walkBody(sum, st.Body, held.clone()); out != nil {
			exits = append(exits, out)
		}
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			if out := g.walkBody(sum, e, held.clone()); out != nil {
				exits = append(exits, out)
			}
		case *ast.IfStmt:
			if out := g.walkStmt(sum, e, held.clone()); out != nil {
				exits = append(exits, out)
			}
		case nil:
			exits = append(exits, held)
		}
		if len(exits) == 0 {
			return nil
		}
		return unionHeld(exits)
	case *ast.ForStmt:
		if st.Init != nil {
			held = g.walkStmt(sum, st.Init, held)
		}
		if st.Cond != nil {
			g.walkExpr(sum, st.Cond, held)
		}
		g.walkBody(sum, st.Body, held.clone())
		return held // the zero-iteration path approximates the exit set
	case *ast.RangeStmt:
		g.walkExpr(sum, st.X, held)
		g.walkBody(sum, st.Body, held.clone())
		return held
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = g.walkStmt(sum, st.Init, held)
		}
		if st.Tag != nil {
			g.walkExpr(sum, st.Tag, held)
		}
		g.walkClauses(sum, st.Body, held)
		return held
	case *ast.TypeSwitchStmt:
		g.walkClauses(sum, st.Body, held)
		return held
	case *ast.SelectStmt:
		g.walkClauses(sum, st.Body, held)
		return held
	case *ast.BlockStmt:
		return g.walkBody(sum, st, held)
	case *ast.LabeledStmt:
		return g.walkStmt(sum, st.Stmt, held)
	case *ast.SendStmt:
		g.walkExpr(sum, st.Chan, held)
		g.walkExpr(sum, st.Value, held)
	case *ast.IncDecStmt:
		g.walkExpr(sum, st.X, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						g.walkExpr(sum, v, held)
					}
				}
			}
		}
	}
	return held
}

func (g *lockGraph) walkClauses(sum *fnSummary, body *ast.BlockStmt, held heldSet) {
	for _, c := range body.List {
		h := held.clone()
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, cs := range cc.Body {
				if h = g.walkStmt(sum, cs, h); h == nil {
					break
				}
			}
		case *ast.CommClause:
			if cc.Comm != nil {
				h = g.walkStmt(sum, cc.Comm, h)
			}
			for _, cs := range cc.Body {
				if h == nil {
					break
				}
				h = g.walkStmt(sum, cs, h)
			}
		}
	}
}

// walkExpr scans an expression for calls and escaping func literals.
func (g *lockGraph) walkExpr(sum *fnSummary, e ast.Expr, held heldSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// Chained receivers (a().b()) hide calls inside Fun.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				g.walkExpr(sum, sel.X, held)
			}
			for _, a := range n.Args {
				if _, isLit := a.(*ast.FuncLit); !isLit {
					g.walkExpr(sum, a, held)
				}
			}
			g.walkCall(sum, n, held)
			return false
		case *ast.FuncLit:
			// Reached outside a call argument position: the literal is
			// stored, so it escapes.
			g.escapeLit(n)
			return false
		}
		return true
	})
}

// escapeLit analyzes a literal that may be invoked later through a
// func-typed value: body walked with an empty held set, acquires pooled.
func (g *lockGraph) escapeLit(lit *ast.FuncLit) {
	esc := &fnSummary{acquires: map[types.Object]acqMode{}}
	g.escapeSums = append(g.escapeSums, esc)
	g.walkBody(esc, lit.Body, heldSet{})
}

// walkCall applies the effect of one call under the current held set.
func (g *lockGraph) walkCall(sum *fnSummary, call *ast.CallExpr, held heldSet) {
	p := g.pass
	if lock, op := g.mutexOp(call); lock != nil {
		switch op {
		case "Lock", "RLock":
			write := op == "Lock"
			if prev, already := held[lock]; already {
				// Recursive RLock is reported too: a writer queued between
				// the two RLocks deadlocks both (sync.RWMutex documentation).
				p.Reportf(call.Pos(), "%s of %s while already held (acquired at %s): recursive locking self-deadlocks",
					op, g.names[lock], p.Mod.Fset.Position(prev.pos))
				return
			}
			for h, hl := range held {
				g.addEdge(h, lock, call.Pos(), hl.write || write)
			}
			if write {
				sum.acquires[lock] |= acqWrite
			} else {
				sum.acquires[lock] |= acqRead
			}
			held[lock] = heldLock{pos: call.Pos(), write: write}
		case "Unlock", "RUnlock":
			delete(held, lock)
		}
		return
	}
	// A literal passed as a call argument is both invoked here (sync.Once.Do,
	// sort.Slice and friends call synchronously — so it runs under the
	// current held set) and possibly stored for later (callback registries) —
	// so it joins the escaping pool too.
	for _, a := range call.Args {
		if lit, ok := a.(*ast.FuncLit); ok {
			// The clone keeps the lit's internal lock effects (and its defers,
			// which our model holds to "function" end) from leaking into the
			// caller's held set after the lit returns.
			g.walkBody(sum, lit.Body, held.clone())
			g.escapeLit(lit)
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		g.walkBody(sum, lit.Body, held.clone())
		return
	}
	// Builtins (panic, append, …) and type conversions are not dynamic calls.
	if tv, ok := p.Pkg.Info.Types[call.Fun]; ok && (tv.IsBuiltin() || tv.IsType()) {
		return
	}
	if callee := staticCallee(p.Pkg.Info, call); callee != nil {
		if callee.Pkg() == p.Pkg.Types {
			sum.calls = append(sum.calls, callSite{callee: callee, held: held.clone(), pos: call.Pos()})
		}
		return
	}
	// Dynamic call through a func-typed value: may invoke any escaping
	// literal.
	if t := p.TypeOf(call.Fun); t != nil {
		if _, ok := t.Underlying().(*types.Signature); ok {
			sum.dynCalls = append(sum.dynCalls, dynSite{held: held.clone(), pos: call.Pos()})
		}
	}
}

// mutexOp recognizes sync.Mutex / sync.RWMutex method calls and resolves the
// abstract lock identity of the receiver.
func (g *lockGraph) mutexOp(call *ast.CallExpr) (types.Object, string) {
	typ, name, base, ok := syncCall(g.pass, call)
	if !ok || !isMutex(typ) {
		return nil, ""
	}
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return nil, ""
	}
	name = strings.TrimPrefix(name, "Try")
	// Embedded mutex: the promoted selection's field path names the lock.
	if selection := g.pass.Pkg.Info.Selections[call.Fun.(*ast.SelectorExpr)]; selection != nil {
		if idx := selection.Index(); len(idx) > 1 {
			if f := fieldAt(selection.Recv(), idx[:len(idx)-1]); f != nil {
				g.setName(f, typeName(selection.Recv())+"."+f.Name())
				return f, name
			}
		}
	}
	return g.lockOf(base), name
}

// lockOf resolves the receiver expression of a mutex method to an abstract
// lock object: struct field (merged across instances), package-level var, or
// local var.
func (g *lockGraph) lockOf(e ast.Expr) types.Object {
	p := g.pass
	switch e := e.(type) {
	case *ast.ParenExpr:
		return g.lockOf(e.X)
	case *ast.UnaryExpr:
		return g.lockOf(e.X)
	case *ast.StarExpr:
		return g.lockOf(e.X)
	case *ast.SelectorExpr:
		if selection := p.Pkg.Info.Selections[e]; selection != nil {
			if f := fieldAt(selection.Recv(), selection.Index()); f != nil {
				g.setName(f, typeName(selection.Recv())+"."+f.Name())
				return f
			}
		}
		if o := p.ObjectOf(e.Sel); o != nil {
			g.setName(o, ExprString(e))
			return o
		}
	case *ast.Ident:
		if o := p.ObjectOf(e); o != nil {
			g.setName(o, e.Name)
			return o
		}
	case *ast.IndexExpr:
		// A mutex in a map/slice of mutexes: identify by the container.
		return g.lockOf(e.X)
	}
	return nil
}

// setName records a display name once per lock, disambiguating collisions
// with the declaration site (traversal order is deterministic, so names are
// stable run to run).
func (g *lockGraph) setName(o types.Object, n string) {
	if _, ok := g.names[o]; ok {
		return
	}
	for other, name := range g.names {
		if name == n && other != o {
			pos := g.pass.Mod.Fset.Position(o.Pos())
			n = fmt.Sprintf("%s(%s:%d)", n, pos.Filename, pos.Line)
			break
		}
	}
	g.names[o] = n
}

func typeName(t types.Type) string {
	t = derefType(t)
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// fieldAt walks a field index path from a receiver type, returning the field
// variable it lands on.
func fieldAt(t types.Type, index []int) *types.Var {
	var f *types.Var
	for _, i := range index {
		t = derefType(t)
		s, ok := t.Underlying().(*types.Struct)
		if !ok || i >= s.NumFields() {
			return nil
		}
		f = s.Field(i)
		t = f.Type()
	}
	return f
}

// reportCycles finds each elementary cycle in the acquisition graph once,
// discovered from its lexically smallest node, and reports it at the
// position of its earliest edge.
func (g *lockGraph) reportCycles() {
	nodes := make([]types.Object, 0, len(g.edges))
	for n := range g.edges {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		a, b := nodes[i], nodes[j]
		if g.names[a] != g.names[b] {
			return g.names[a] < g.names[b]
		}
		return a.Pos() < b.Pos()
	})
	reported := map[string]bool{}
	for _, start := range nodes {
		onPath := map[types.Object]bool{start: true}
		g.dfs(start, start, []types.Object{start}, onPath, reported)
	}
}

func (g *lockGraph) dfs(start, cur types.Object, path []types.Object, onPath map[types.Object]bool, reported map[string]bool) {
	succs := make([]types.Object, 0, len(g.edges[cur]))
	for s := range g.edges[cur] {
		succs = append(succs, s)
	}
	sort.Slice(succs, func(i, j int) bool {
		if g.names[succs[i]] != g.names[succs[j]] {
			return g.names[succs[i]] < g.names[succs[j]]
		}
		return succs[i].Pos() < succs[j].Pos()
	})
	for _, next := range succs {
		if next == start && len(path) > 1 {
			g.reportCycle(path, reported)
			continue
		}
		if onPath[next] || g.names[next] < g.names[start] {
			continue
		}
		onPath[next] = true
		g.dfs(start, next, append(path, next), onPath, reported)
		delete(onPath, next)
	}
}

func (g *lockGraph) reportCycle(path []types.Object, reported map[string]bool) {
	p := g.pass
	names := make([]string, len(path))
	for i, n := range path {
		names[i] = g.names[n]
	}
	key := strings.Join(names, "→")
	if reported[key] {
		return
	}
	reported[key] = true
	// A cycle whose every hold and acquisition is read-mode cannot deadlock:
	// readers admit each other. Any write edge re-arms the report.
	pureRead := true
	for i := range path {
		if e := g.edges[path[i]][path[(i+1)%len(path)]]; e != nil && e.write {
			pureRead = false
		}
	}
	if pureRead {
		return
	}
	var steps []string
	var firstPos token.Pos
	for i := range path {
		a, b := path[i], path[(i+1)%len(path)]
		pos := g.edges[a][b].pos
		if firstPos == token.NoPos || (pos != token.NoPos && pos < firstPos) {
			firstPos = pos
		}
		steps = append(steps, fmt.Sprintf("%s acquired while holding %s at %s",
			g.names[b], g.names[a], p.Mod.Fset.Position(pos)))
	}
	p.Reportf(firstPos, "lock order cycle %s → %s: %s",
		strings.Join(names, " → "), names[0], strings.Join(steps, "; "))
}
