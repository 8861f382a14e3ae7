package vet

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ParSafe proves the hot loops of ROADMAP item 3 parallelizable before any
// goroutine exists to race. A loop slated for intra-flow parallelism is
// marked with an anchor directly above its for/range statement:
//
//	//tmi3dvet:parloop sta.loads
//
// For each anchored loop the analyzer computes the per-iteration effect set,
// interprocedurally through same-package calls, methods and closures (the
// shared effects.go engine behind stagedeps), and reports every
// cross-iteration hazard:
//
//  1. shared write — a write whose root outlives the iteration (outer local,
//     field, package global, or a callee that writes a shared argument or
//     receiver) with no iteration-variable index to partition it;
//  2. aliasing — an indexed write whose index never mentions an iteration
//     variable, so two iterations can address the same element;
//  3. float reduction — a compound float assignment onto shared state, the
//     netlist pin-order class recast for reductions: parallel execution
//     reorders the sum and breaks byte identity;
//  4. RNG draw — any math/rand use in the body; iteration order would become
//     schedule order, violating the Config.DeriveSeed contract;
//  5. append collection — results collected by append onto a shared slice
//     instead of index-addressed stores, which both races and reorders.
//
// A write that IS partitioned by an iteration variable (res.Load[i],
// e.p.X[i]) is safe and exported in the loop's Writes summary — the future
// parallel PR's proof obligation is exactly "one iteration, one element".
//
// Hazards are suppressed by an audited //tmi3dvet:parhazard <reason> on the
// hazard line (or the line above); a suppression directly above the for
// statement covers the whole loop — for loops like spice.stamp whose fix is
// a planned restructure rather than a per-site argument. parsafe owns the
// bare/stale audit for the directive.
//
// The anchored set is reconciled module-wide against the declarative
// ParLoops manifest (internal/flow/parloops.go, the StageKeys shape): an
// anchor without a manifest entry, a dead entry, a package mismatch, and a
// duplicate anchor name are all diagnostics, so the manifest is the single
// authoritative green board.
//
// Soundness posture: same-package transitivity. A dynamic or cross-package
// callee is judged by its argument surface — it is flagged only when it
// receives a pointer-shaped value rooted outside the iteration (so it could
// write shared state we cannot see); what such a callee does to ITS OWN
// package's state is policed by globalmut/seedpurity over there. This
// over-approximates read-only callees like liberty.MustCell (suppress with a
// reason) and under-approximates closures smuggled in as values, which the
// repo's flow-deterministic packages do not do.
var ParSafe = &Analyzer{
	Name: "parsafe",
	Doc:  "verifies anchored hot loops have no cross-iteration hazards",
	Run:  runParSafe,
}

// ParLoop is the exported per-iteration effect summary of one anchored loop.
type ParLoop struct {
	Package string `json:"package"`
	Func    string `json:"func"`
	Name    string `json:"name"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	// Reads are the outer-scope roots the body reads — the shared surface a
	// parallel implementation must treat as immutable for the loop's duration.
	Reads []string `json:"reads,omitempty"`
	// Writes are the proven iteration-partitioned stores (index mentions an
	// iteration variable).
	Writes []string `json:"writes,omitempty"`
	// Hazards counts suppressed hazards; zero means the loop verified clean.
	Hazards int `json:"hazards_suppressed"`

	pos token.Position // anchor position, for reconciliation diagnostics
}

// parEntry is one parsed ParLoops manifest entry, reconciled module-wide.
type parEntry struct {
	name    string
	pkgPath string
	pos     token.Position
}

type parAnchor struct {
	pos  token.Pos
	name string
}

func runParSafe(p *Pass) {
	parseParLoopsManifest(p)
	var anchors []*parAnchor
	scanDirectives(p, "parloop", func(c *ast.Comment, rest string) {
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			p.Reportf(c.Pos(), "//tmi3dvet:parloop anchor without a loop name — name the loop the manifest tracks")
			return
		}
		anchors = append(anchors, &parAnchor{pos: c.Pos(), name: fields[0]})
	})
	sup := collectSuppressions(p, "parhazard")
	if len(anchors) == 0 {
		if p.anchor == "" {
			sup.reportStale("parallel hazard")
		}
		return
	}

	loops := collectLoops(p)
	sums := newEffects(p, findConfigType(p))
	for _, a := range anchors {
		if p.anchor != "" && a.name != p.anchor {
			continue
		}
		target := loopBelow(p, loops, sup, a.pos)
		if target == nil {
			p.Reportf(a.pos, "//tmi3dvet:parloop %s anchors no for statement: move it directly above the loop or delete it", a.name)
			continue
		}
		analyzeParLoop(p, sums, sup, a, target)
	}
	if p.anchor == "" {
		sup.reportStale("parallel hazard")
	}
}

// parseParLoopsManifest exports the package's ParLoops = map[string]string
// literal (loop name -> package import path), if declared.
func parseParLoopsManifest(p *Pass) {
	id, lit := manifestLit(p.Pkg, "ParLoops")
	if id == nil {
		return
	}
	if lit == nil {
		p.Reportf(id.Pos(), "ParLoops must be a literal map[string]string so parsafe can read it statically")
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		loop, ok1 := constString(p.Pkg.Info, kv.Key)
		pkg, ok2 := constString(p.Pkg.Info, kv.Value)
		if !ok1 || !ok2 {
			p.Reportf(kv.Pos(), "ParLoops entries must be string-constant loop name -> package path")
			continue
		}
		p.exportParEntry(parEntry{
			name:    loop,
			pkgPath: pkg,
			pos:     p.Mod.Fset.Position(kv.Key.Pos()),
		})
	}
}

// loopInfo ties a for/range statement to its enclosing named function.
type loopInfo struct {
	stmt ast.Stmt // *ast.ForStmt or *ast.RangeStmt
	fn   *ast.FuncDecl
}

func collectLoops(p *Pass) map[int]loopInfo {
	byLine := map[int]loopInfo{}
	for _, fd := range p.Pkg.Funcs {
		ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				st := n.(ast.Stmt)
				byLine[p.Mod.Fset.Position(st.Pos()).Line] = loopInfo{stmt: st, fn: fd.Decl}
			}
			return true
		})
	}
	return byLine
}

// loopBelow resolves an anchor to the loop on the next line, or the line
// after that when a loop-level //tmi3dvet:parhazard sits between them.
func loopBelow(p *Pass, loops map[int]loopInfo, sup *suppressions, anchorPos token.Pos) *loopInfo {
	at := p.Mod.Fset.Position(anchorPos)
	if li, ok := loops[at.Line+1]; ok {
		return &li
	}
	if lines := sup.byLine[at.Filename]; lines != nil && lines[at.Line+1] != nil {
		if li, ok := loops[at.Line+2]; ok {
			return &li
		}
	}
	return nil
}

// loopHeader returns the body block and the set of iteration variables — the
// objects whose value distinguishes one iteration from another, and which
// therefore partition indexed writes.
func loopHeader(p *Pass, st ast.Stmt) (*ast.BlockStmt, map[types.Object]bool) {
	iter := map[types.Object]bool{}
	add := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := p.ObjectOf(id); obj != nil {
				iter[obj] = true
			}
		}
	}
	switch st := st.(type) {
	case *ast.RangeStmt:
		add(st.Key)
		add(st.Value)
		return st.Body, iter
	case *ast.ForStmt:
		if init, ok := st.Init.(*ast.AssignStmt); ok {
			for _, lhs := range init.Lhs {
				add(lhs)
			}
		}
		return st.Body, iter
	}
	return nil, iter
}

// parScan is the per-loop analysis state.
type parScan struct {
	p     *Pass
	sums  *effects
	sup   *suppressions
	loop  *loopInfo
	name  string
	body  *ast.BlockStmt
	iter  map[types.Object]bool
	reads map[string]bool
	safe  map[string]bool // rendered iteration-partitioned writes
	supd  int             // suppressed hazard count
}

func analyzeParLoop(p *Pass, sums *effects, sup *suppressions, a *parAnchor, target *loopInfo) {
	body, iter := loopHeader(p, target.stmt)
	if body == nil {
		return
	}
	s := &parScan{
		p: p, sums: sums, sup: sup, loop: target, name: a.name,
		body: body, iter: iter,
		reads: map[string]bool{}, safe: map[string]bool{},
	}
	s.walk()
	loopPos := p.Mod.Fset.Position(target.stmt.Pos())
	p.ExportParLoop(ParLoop{
		Package: p.Pkg.Path,
		Func:    target.fn.Name.Name,
		Name:    a.name,
		File:    loopPos.Filename,
		Line:    loopPos.Line,
		Reads:   sortedKeys(s.reads, strings.Compare),
		Writes:  sortedKeys(s.safe, strings.Compare),
		Hazards: s.supd,
		pos:     p.Mod.Fset.Position(a.pos),
	})
}

// hazard reports one cross-iteration hazard unless a site-level or
// loop-level suppression covers it. The loop-level suppression (directly
// above the for statement) is consulted lazily, so one that excuses nothing
// goes stale.
func (s *parScan) hazard(pos token.Pos, format string, args ...any) {
	if s.sup.at(pos) != nil || s.sup.at(s.loop.stmt.Pos()) != nil {
		s.supd++
		return
	}
	s.p.Reportf(pos, "parloop %s: "+format, append([]any{s.name}, args...)...)
}

// iterationLocal reports whether the object belongs to one iteration: a loop
// header variable or anything declared inside the body (including closure
// parameters and locals — closures defined in the body run within the
// iteration).
func (s *parScan) iterationLocal(obj types.Object) bool {
	if s.iter[obj] {
		return true
	}
	return obj.Pos() > s.body.Lbrace && obj.Pos() < s.body.Rbrace
}

// indexedByIter reports whether any index on the access path mentions an
// iteration variable — the partition argument that makes a shared-container
// write safe.
func (s *parScan) indexedByIter(target ast.Expr) bool {
	return indexMentions(s.p, target, func(obj types.Object) bool { return s.iter[obj] })
}

func hasIndex(target ast.Expr) bool {
	found := false
	ast.Inspect(target, func(n ast.Node) bool {
		if _, ok := n.(*ast.IndexExpr); ok {
			found = true
		}
		return true
	})
	return found
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// classifyWrite runs the hazard decision tree on one write target rooted
// outside the iteration. isAppend marks x = append(x, ...) collection;
// isFloatOp marks a compound float assignment (+=, -=, ...).
func (s *parScan) classifyWrite(target ast.Expr, isAppend, isFloatOp bool) {
	root := rootObj(s.p, unwrapWriteTarget(target))
	v, ok := root.(*types.Var)
	if !ok || s.iterationLocal(v) {
		return
	}
	switch {
	case s.indexedByIter(target):
		s.safe[ExprString(target)] = true
	case isAppend:
		s.hazard(target.Pos(), "append collects into shared %s: concurrent appends race and reorder — store by iteration index instead", ExprString(target))
	case isFloatOp:
		s.hazard(target.Pos(), "order-dependent float reduction onto shared %s: parallel iteration order changes the sum and breaks byte identity — accumulate per-iteration and combine in index order", ExprString(target))
	case hasIndex(target):
		s.hazard(target.Pos(), "write to %s aliases across iterations: no index on the path mentions an iteration variable, so two iterations can hit the same element", ExprString(target))
	default:
		s.hazard(target.Pos(), "write to shared %s is reachable from every iteration: hoist it, make it per-iteration, or address it by the iteration variable", ExprString(target))
	}
}

// walk scans the loop body: direct writes, RNG draws, and calls — with
// same-package callees judged by their effect summary and everything else by
// its argument surface.
func (s *parScan) walk() {
	p := s.p
	pkgScope := p.Pkg.Types.Scope()
	ast.Inspect(s.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if n.Tok == token.DEFINE {
					if id, ok := lhs.(*ast.Ident); ok && p.Pkg.Info.Defs[id] != nil {
						continue
					}
				}
				isApp := false
				if len(n.Lhs) == len(n.Rhs) {
					if call, ok := n.Rhs[i].(*ast.CallExpr); ok && isBuiltin(p, call, "append") {
						isApp = true
					}
				}
				isFloatOp := n.Tok != token.ASSIGN && n.Tok != token.DEFINE && isFloat(p.TypeOf(lhs))
				s.classifyWrite(lhs, isApp, isFloatOp)
			}
		case *ast.IncDecStmt:
			s.classifyWrite(n.X, false, false)
		case *ast.CallExpr:
			s.scanCall(n)
		case *ast.Ident:
			obj := p.Pkg.Info.Uses[n]
			if v, ok := obj.(*types.Var); ok && !s.iterationLocal(v) {
				if v.Parent() == pkgScope || !v.IsField() {
					s.reads[v.Name()] = true
				}
			}
		}
		return true
	})
}

// scanCall judges one call in the loop body.
func (s *parScan) scanCall(call *ast.CallExpr) {
	p := s.p
	switch {
	case isBuiltin(p, call, "append"):
		return // judged at the enclosing assignment
	case isBuiltin(p, call, "delete") && len(call.Args) >= 1:
		s.classifyWrite(call.Args[0], false, false)
		return
	case isBuiltin(p, call, "copy") && len(call.Args) >= 1:
		s.classifyWrite(call.Args[0], false, false)
		return
	}
	if isRandCall(p, call) {
		s.hazard(call.Pos(), "RNG draw inside the loop body: parallel execution makes draw order schedule order — derive one sub-seed per iteration before the loop")
		return
	}
	callee := staticCallee(p.Pkg.Info, call)
	if callee != nil && callee.Pkg() == p.Pkg.Types {
		if csum := s.sums.summarize(callee); csum != nil {
			s.judgeSummary(call, callee, csum)
			return
		}
	}
	if fn, ok := call.Fun.(*ast.Ident); ok {
		if obj := p.Pkg.Info.Uses[fn]; obj != nil {
			if _, isVar := obj.(*types.Var); isVar && s.iterationLocal(obj) {
				return // body-defined closure: its body is walked in place
			}
		}
	}
	s.judgeOpaque(call, callee)
}

// judgeSummary applies a same-package callee's effect summary at the call.
func (s *parScan) judgeSummary(call *ast.CallExpr, callee *types.Func, csum *fnEffects) {
	p := s.p
	for _, obj := range sortedKeys(csum.globalWrites, byNameThenPos) {
		s.hazard(call.Pos(), "%s writes package-level %s, shared by every iteration", callee.Name(), obj.Name())
	}
	for _, obj := range sortedKeys(csum.globals, byNameThenPos) {
		s.reads[obj.Name()] = true
	}
	if csum.rand {
		s.hazard(call.Pos(), "%s draws from math/rand: parallel execution makes draw order schedule order — derive one sub-seed per iteration before the loop", callee.Name())
	}
	for _, idx := range sortedKeys(csum.paramWrites, cmp.Compare[int]) {
		arg := callArgExpr(call, idx)
		if arg == nil {
			continue
		}
		root := rootObj(p, unwrapArg(arg))
		v, ok := root.(*types.Var)
		if !ok || s.iterationLocal(v) {
			continue
		}
		if s.indexedByIter(arg) {
			s.safe[ExprString(arg)] = true
			continue
		}
		s.hazard(call.Pos(), "%s writes through %s, which every iteration shares", callee.Name(), ExprString(arg))
	}
}

// judgeOpaque judges a dynamic or cross-package call by its argument
// surface: a pointer-shaped value rooted outside the iteration hands the
// callee shared state this analyzer cannot see into.
func (s *parScan) judgeOpaque(call *ast.CallExpr, callee *types.Func) {
	p := s.p
	args := make([]ast.Expr, 0, len(call.Args)+1)
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		// The selector base counts as an argument for method calls and for
		// func-valued fields/dynamic selections (callee unknown); a static
		// callee with no receiver is a package-qualified call, whose base is
		// just the package name.
		judgeBase := callee == nil
		if callee != nil {
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && pointerShaped(sig.Recv().Type()) {
				judgeBase = true
			}
		}
		if judgeBase {
			args = append(args, sel.X)
		}
	}
	args = append(args, call.Args...)
	for _, arg := range args {
		t := p.TypeOf(arg)
		if t == nil || !pointerShaped(t) {
			continue
		}
		root := rootObj(p, unwrapArg(arg))
		v, ok := root.(*types.Var)
		if !ok || s.iterationLocal(v) {
			continue
		}
		if s.indexedByIter(arg) {
			continue
		}
		name := ExprString(call.Fun)
		s.hazard(call.Pos(), "cannot prove %s leaves %s unwritten (dynamic or cross-package callee): pass per-iteration state or suppress with the read-only argument", name, ExprString(arg))
	}
}

// unwrapArg peels &x and slicings so rootObj sees the shared container.
func unwrapArg(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return e
			}
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

// reconcileParLoops diffs the module's anchors against the ParLoops manifest
// after all packages are analyzed: the manifest is the authoritative list of
// loops the parallel PR may touch, so drift in either direction is an error.
func reconcileParLoops(res *Result, entries []parEntry) {
	report := func(pos token.Position, format string, args ...any) {
		res.Diags = append(res.Diags, Diagnostic{Pos: pos, Check: "parsafe", Message: fmt.Sprintf(format, args...)})
	}
	byName := map[string]*ParLoop{}
	for i := range res.ParLoops {
		pl := &res.ParLoops[i]
		if prev, ok := byName[pl.Name]; ok {
			report(pl.pos, "duplicate //tmi3dvet:parloop %s: already anchored at %s:%d", pl.Name, prev.File, prev.Line)
			continue
		}
		byName[pl.Name] = pl
	}
	entryByName := map[string]parEntry{}
	for _, e := range entries {
		if _, ok := entryByName[e.name]; ok {
			report(e.pos, "duplicate ParLoops manifest entry %q", e.name)
			continue
		}
		entryByName[e.name] = e
	}
	for _, name := range sortedKeys(byName, strings.Compare) {
		pl := byName[name]
		e, ok := entryByName[pl.Name]
		if !ok {
			report(pl.pos, "anchored parloop %s has no ParLoops manifest entry: add it to the manifest or delete the anchor", pl.Name)
			continue
		}
		if pl.Package != e.pkgPath && !strings.HasSuffix(pl.Package, "/"+e.pkgPath) {
			report(e.pos, "ParLoops[%q] declares package %q but the anchor is in %q", pl.Name, e.pkgPath, pl.Package)
		}
	}
	for _, n := range sortedKeys(entryByName, strings.Compare) {
		if _, ok := byName[n]; !ok {
			e := entryByName[n]
			report(e.pos, "ParLoops entry %q matches no //tmi3dvet:parloop anchor: dead manifest entry — delete it or anchor the loop", n)
		}
	}
}
