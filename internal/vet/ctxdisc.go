package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxDisc polices the serving/store/engine packages — the surfaces ROADMAP
// item 2 multiplies across a node fleet — for the cancellation and resource
// classes that are merely annoying in one process and fatal at fleet scale:
//
//   - a spawned goroutine with no cancellation path at all: no context in its
//     body, no channel operation or select, no WaitGroup — nothing a drain
//     can reach;
//   - a context.Context parameter accepted but never used: callers believe
//     cancellation propagates and it silently stops here;
//   - time.Sleep inside a context-bearing function (a sleep ignores ctx; a
//     timer select does not);
//   - timer leaks: time.After in a loop (one unstoppable timer allocation per
//     iteration) and time.NewTimer/NewTicker values that are never stopped;
//   - handles not closed on every path: files, response bodies, and listeners
//     tracked branch-sensitively through the err-check idiom, so a
//     `if err != nil || resp.StatusCode != 200 { return }` that skips Close
//     on the non-error half of the disjunction is a diagnostic;
//   - blocking I/O while holding a mutex (the PR 4 AB-BA class upgraded to
//     "held across fsync/network"): disk and network calls — direct or
//     through module-local callees, summarized transitively — flagged while
//     any sync.Mutex/RWMutex is lexically held.
//
// Findings are suppressed by an audited //tmi3dvet:ctxdisc <reason> on the
// flagged line or the line above; ctxdisc owns the directive's bare/stale
// audit.
//
// Soundness posture: lexical and path-local, tuned toward silence outside
// what it can see. A handle released by a helper, a cancellation woven
// through a struct field, or I/O hidden behind an interface method all
// stand down the checks (escape exempts; interface dispatch is not
// summarized), so reports stay confined to one function body where the fix
// or the suppression reason is local. The err-branch model releases a handle
// only on an exact `err != nil` / `err == nil` condition — compound
// conditions deliberately do not release, because a disjunction that mixes
// the error check with a status check is exactly the shape that leaks the
// body on the non-error arm.
var CtxDisc = &Analyzer{
	Name: "ctxdisc",
	Doc:  "cancellation and resource discipline in serve/castore/stage/loadgen: orphan goroutines, dropped contexts, timer and handle leaks, lock-held I/O",
	Run:  runCtxDisc,
}

func runCtxDisc(p *Pass) {
	if !CtxScoped(p.Pkg.Path) {
		return
	}
	sup := collectSuppressions(p, "ctxdisc")
	io := &ioSummary{mod: p.Mod, memo: map[*types.Func]bool{}, walking: map[*types.Func]bool{}}
	for _, fd := range p.Pkg.Funcs {
		checkCtxFunc(p, sup, fd.Decl)
		checkTimers(p, sup, fd.Decl)
		checkHandles(p, sup, fd.Decl)
		checkLockHeldIO(p, sup, io, fd.Decl)
	}
	sup.reportStale("cancellation/resource finding")
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// pkgFuncCall resolves a package-qualified call (pkg.Fn(...)) to its import
// path and function name.
func pkgFuncCall(pkg *Package, call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := pkg.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// checkCtxFunc runs the spawn-cancellation and context-threading checks.
func checkCtxFunc(p *Pass, sup *suppressions, fd *ast.FuncDecl) {
	// Context parameters: collect them, then count uses in the body.
	var ctxParams []*types.Var
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := p.Pkg.Info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
					ctxParams = append(ctxParams, v)
				}
			}
		}
	}
	used := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := p.Pkg.Info.Uses[id].(*types.Var); ok {
			used[v] = true
		}
		return true
	})
	for _, v := range ctxParams {
		if !used[v] && v.Name() != "_" {
			sup.report(v.Pos(), "%s accepts a context.Context it never uses: callers believe cancellation propagates and it silently stops here — thread %s to the blocking calls or drop the parameter", fd.Name.Name, v.Name())
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			var body *ast.BlockStmt
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				body = lit.Body
			} else if callee := staticCallee(p.Pkg.Info, n.Call); callee != nil {
				body = p.Pkg.Body(callee)
			}
			if body != nil && !hasCancelPath(p, body) {
				sup.report(n.Pos(), "goroutine has no cancellation path: no context, channel operation, select, or WaitGroup in its body — nothing a drain or shutdown can reach; thread a ctx or a done channel")
			}
		case *ast.CallExpr:
			if path, name, ok := pkgFuncCall(p.Pkg, n); ok && path == "time" && name == "Sleep" && len(ctxParams) > 0 {
				sup.report(n.Pos(), "time.Sleep in context-bearing %s ignores cancellation: the caller's deadline passes and this keeps sleeping — select on a timer and ctx.Done() instead", fd.Name.Name)
			}
		}
		return true
	})
}

// hasCancelPath reports whether a goroutine body contains anything a
// shutdown can reach: a context value, a channel operation or select, or
// WaitGroup bookkeeping (a bounded task that signals completion).
func hasCancelPath(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := p.TypeOf(n.X); t != nil {
				if _, overChan := t.Underlying().(*types.Chan); overChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if typ, method, _, ok := syncCall(p, n); ok && typ == "WaitGroup" && (method == "Done" || method == "Wait") {
				found = true
			}
		case ast.Expr:
			if t := p.TypeOf(n); t != nil && isContextType(t) {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkTimers flags time.After in loops and NewTimer/NewTicker values that
// are never stopped.
func checkTimers(p *Pass, sup *suppressions, fd *ast.FuncDecl) {
	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			if path, name, ok := pkgFuncCall(p.Pkg, n); ok && path == "time" && name == "After" && enclosingLoop(stack) != nil {
				sup.report(n.Pos(), "time.After inside a loop allocates an unstoppable timer every iteration: under sustained load that is an unbounded leak until each duration expires — hoist one time.NewTimer and Reset it")
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				path, name, ok := pkgFuncCall(p.Pkg, call)
				if !ok || path != "time" || (name != "NewTimer" && name != "NewTicker") {
					continue
				}
				if i >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.ObjectOf(id)
				if obj == nil || timerStoppedOrEscapes(p, fd, obj) {
					continue
				}
				sup.report(call.Pos(), "time.%s result %s is never stopped in %s: the timer fires into a dead channel and holds its runtime entry — defer %s.Stop()", name, id.Name, fd.Name.Name, id.Name)
			}
		}
		return true
	})
}

// timerStoppedOrEscapes reports whether obj has a .Stop() call anywhere in fd
// or escapes the function (returned or passed onward), which stands the
// check down.
func timerStoppedOrEscapes(p *Pass, fd *ast.FuncDecl, obj types.Object) bool {
	done := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" && rootObj(p, sel.X) == obj {
				done = true
				return false
			}
			for _, arg := range n.Args {
				if id, ok := arg.(*ast.Ident); ok && p.ObjectOf(id) == obj {
					done = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if id, ok := res.(*ast.Ident); ok && p.ObjectOf(id) == obj {
					done = true
					return false
				}
			}
		}
		return true
	})
	return done
}

// ---- handle leaks -------------------------------------------------------

// handle is one open resource being tracked along the current path.
type handle struct {
	obj      types.Object // the variable holding the handle
	err      types.Object // the paired error variable, if any
	kind     string       // "file", "response body", "listener"
	what     string       // the acquiring call, for the message
	pos      token.Pos
	deferred bool  // a defer closes it: safe on every path
	reported *bool // shared across path clones: report each acquisition once
}

type heldHandles map[types.Object]*handle

func (h heldHandles) clone() heldHandles {
	c := make(heldHandles, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// acquireKind classifies a call that opens a trackable resource.
func acquireKind(p *Pass, call *ast.CallExpr) (kind, what string, ok bool) {
	if path, name, isPkg := pkgFuncCall(p.Pkg, call); isPkg {
		switch {
		case path == "os" && (name == "Open" || name == "Create" || name == "CreateTemp" || name == "OpenFile"):
			return "file", "os." + name, true
		case path == "net" && name == "Listen":
			return "listener", "net." + name, true
		case path == "net/http" && (name == "Get" || name == "Post" || name == "Head" || name == "PostForm"):
			return "response body", "http." + name, true
		}
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	s := p.Pkg.Info.Selections[sel]
	if s == nil {
		return "", "", false
	}
	f, isFn := s.Obj().(*types.Func)
	if !isFn || f.Pkg() == nil || f.Pkg().Path() != "net/http" {
		return "", "", false
	}
	recv, isNamed := derefType(s.Recv()).(*types.Named)
	if !isNamed || recv.Obj().Name() != "Client" {
		return "", "", false
	}
	switch f.Name() {
	case "Get", "Post", "Do", "Head", "PostForm":
		return "response body", "Client." + f.Name(), true
	}
	return "", "", false
}

// checkHandles walks fd branch-sensitively and reports handles that reach a
// function exit, or the end of a loop iteration, without a Close.
func checkHandles(p *Pass, sup *suppressions, fd *ast.FuncDecl) {
	end := walkHandleStmts(p, sup, fd.Body.List, heldHandles{}, nil)
	reportLeaks(p, sup, end, nil, fd.Body.Rbrace, "the end of "+fd.Name.Name)
}

// reportLeaks reports every handle in held (minus those already in base)
// that is neither deferred-closed nor already reported.
func reportLeaks(p *Pass, sup *suppressions, held, base heldHandles, at token.Pos, exit string) {
	if held == nil {
		return
	}
	for obj, h := range held {
		if h.deferred || *h.reported {
			continue
		}
		if base != nil {
			if _, ok := base[obj]; ok {
				continue
			}
		}
		*h.reported = true
		line := p.Mod.Fset.Position(at).Line
		sup.report(h.pos, "%s from %s is not closed on the path reaching %s (line %d): under load each miss pins a connection or descriptor — close it on every path, including error branches", h.kind, h.what, exit, line)
	}
}

// errNilCond matches an exact `x != nil` / `x == nil` condition and returns
// the compared object. Compound conditions return nil on purpose: a
// disjunction mixing the error check with anything else must not release the
// handle — that is the leaking shape this analyzer exists to catch.
func errNilCond(p *Pass, cond ast.Expr) (obj types.Object, isEq bool) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, false
	}
	classify := func(e ast.Expr) (types.Object, bool) { // (obj, isNil)
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil, false
		}
		obj := p.ObjectOf(id)
		if _, isNil := obj.(*types.Nil); isNil {
			return nil, true
		}
		return obj, false
	}
	lo, ln := classify(be.X)
	ro, rn := classify(be.Y)
	switch {
	case lo != nil && rn:
		return lo, be.Op == token.EQL
	case ro != nil && ln:
		return ro, be.Op == token.EQL
	}
	return nil, false
}

// walkHandleStmts walks one statement list, threading the held-handle set.
// A nil return means the path terminated (return/break/continue/fatal).
// loopEntry, when non-nil, is the held set at loop entry: handles acquired
// inside the loop must be gone again by the end of each iteration.
func walkHandleStmts(p *Pass, sup *suppressions, stmts []ast.Stmt, held, loopEntry heldHandles) heldHandles {
	for _, stmt := range stmts {
		held = walkHandleStmt(p, sup, stmt, held, loopEntry)
		if held == nil {
			return nil
		}
	}
	return held
}

func walkHandleStmt(p *Pass, sup *suppressions, stmt ast.Stmt, held, loopEntry heldHandles) heldHandles {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		scanHandleOps(p, sup, s, held)
		// Acquisition: h, err := open(...). A rebound still-open handle is
		// replaced silently — path sensitivity already reported the paths
		// that mattered.
		if len(s.Rhs) == 1 && len(s.Lhs) >= 1 {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
				if kind, what, ok := acquireKind(p, call); ok {
					if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						h := &handle{obj: p.ObjectOf(id), kind: kind, what: what, pos: call.Pos(), reported: new(bool)}
						if len(s.Lhs) == 2 {
							if eid, ok := s.Lhs[1].(*ast.Ident); ok && eid.Name != "_" {
								h.err = p.ObjectOf(eid)
							}
						}
						if h.obj != nil {
							held[h.obj] = h
						}
					}
				}
			}
		}
		return held
	case *ast.ExprStmt:
		if isTerminatingCall(p, s.X) {
			return nil
		}
		scanHandleOps(p, sup, s, held)
		return held
	case *ast.DeferStmt:
		// defer h.Close(), defer resp.Body.Close(), or a defer closure that
		// closes the handle somewhere in its body.
		for obj, h := range held {
			closes := callCloses(p, s.Call, obj)
			if lit, ok := s.Call.Fun.(*ast.FuncLit); ok && !closes {
				ast.Inspect(lit.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && callCloses(p, call, obj) {
						closes = true
					}
					return !closes
				})
			}
			if closes {
				h.deferred = true
			}
		}
		return held
	case *ast.ReturnStmt:
		scanHandleOps(p, sup, s, held) // return consume(f) hands the handle off
		for _, res := range s.Results {
			releaseEscapes(p, res, held)
		}
		reportLeaks(p, sup, held, nil, s.Pos(), "the return")
		return nil
	case *ast.IfStmt:
		if s.Init != nil {
			held = walkHandleStmt(p, sup, s.Init, held, loopEntry)
			if held == nil {
				return nil
			}
		}
		thenHeld, elseHeld := held.clone(), held.clone()
		if obj, isEq := errNilCond(p, s.Cond); obj != nil {
			for k, h := range held {
				if h.err == obj {
					if isEq {
						delete(elseHeld, k) // err == nil: else-arm is the failed acquire
					} else {
						delete(thenHeld, k) // err != nil: then-arm is the failed acquire
					}
				}
			}
		}
		t := walkHandleStmts(p, sup, s.Body.List, thenHeld, loopEntry)
		e := elseHeld
		if s.Else != nil {
			e = walkHandleStmt(p, sup, s.Else, elseHeld, loopEntry)
		}
		return mergeHeld(t, e)
	case *ast.BlockStmt:
		return walkHandleStmts(p, sup, s.List, held, loopEntry)
	case *ast.ForStmt:
		if s.Init != nil {
			held = walkHandleStmt(p, sup, s.Init, held, loopEntry)
			if held == nil {
				return nil
			}
		}
		entry := held.clone()
		end := walkHandleStmts(p, sup, s.Body.List, held.clone(), entry)
		reportLeaks(p, sup, end, entry, s.Body.Rbrace, "the next iteration")
		return entry
	case *ast.RangeStmt:
		releaseEscapes(p, s.X, held)
		entry := held.clone()
		end := walkHandleStmts(p, sup, s.Body.List, held.clone(), entry)
		reportLeaks(p, sup, end, entry, s.Body.Rbrace, "the next iteration")
		return entry
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE {
			reportLeaks(p, sup, held, loopEntry, s.Pos(), "the next iteration")
		}
		return nil
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return walkHandleClauses(p, sup, s, held, loopEntry)
	case *ast.LabeledStmt:
		return walkHandleStmt(p, sup, s.Stmt, held, loopEntry)
	case *ast.GoStmt:
		// The handle escapes into the spawned goroutine: its lifetime is no
		// longer this path's to judge.
		ast.Inspect(s.Call, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				delete(held, p.ObjectOf(id))
			}
			return true
		})
		return held
	default:
		scanHandleOps(p, sup, stmt, held)
		return held
	}
}

// walkHandleClauses walks each case body of a switch/select with its own
// clone and merges the continuing paths.
func walkHandleClauses(p *Pass, sup *suppressions, stmt ast.Stmt, held, loopEntry heldHandles) heldHandles {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = walkHandleStmt(p, sup, s.Init, held, loopEntry)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	if held == nil || body == nil {
		return held
	}
	var out heldHandles
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			stmts = c.Body
		}
		out = mergeHeld(out, walkHandleStmts(p, sup, stmts, held.clone(), loopEntry))
	}
	if _, isSwitch := stmt.(*ast.SwitchStmt); isSwitch && !hasDefault {
		out = mergeHeld(out, held) // no case may match: fall through still holds
	}
	return out
}

func mergeHeld(a, b heldHandles) heldHandles {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	for k, v := range b {
		a[k] = v
	}
	return a
}

// scanHandleOps scans one statement for Close calls and escapes of held
// handles, skipping function literals (their execution is not this path).
func scanHandleOps(p *Pass, sup *suppressions, stmt ast.Stmt, held heldHandles) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// A closure capturing the handle takes over its lifetime.
			ast.Inspect(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					delete(held, p.ObjectOf(id))
				}
				return true
			})
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for obj := range held {
			if callCloses(p, call, obj) {
				delete(held, obj)
				return true
			}
		}
		for _, arg := range call.Args {
			releaseEscapes(p, arg, held)
		}
		return true
	})
}

// callCloses reports whether call is a Close() on a selector chain rooted at
// obj — h.Close(), resp.Body.Close(), ln.Close() all count.
func callCloses(p *Pass, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return false
	}
	return rootObj(p, sel.X) == obj
}

// releaseEscapes drops any handle whose bare identifier appears as e — once
// a handle is handed onward or returned, its close is someone else's
// contract.
func releaseEscapes(p *Pass, e ast.Expr, held heldHandles) {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = pe.X
	}
	if id, ok := e.(*ast.Ident); ok {
		delete(held, p.ObjectOf(id))
	}
}

// isTerminatingCall reports a call that never returns: the path ends without
// the handles leaking anywhere observable.
func isTerminatingCall(p *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if isBuiltin(p, call, "panic") {
		return true
	}
	path, name, ok := pkgFuncCall(p.Pkg, call)
	if !ok {
		return false
	}
	return (path == "os" && name == "Exit") ||
		(path == "log" && (name == "Fatal" || name == "Fatalf" || name == "Fatalln"))
}

// ---- lock-held I/O ------------------------------------------------------

// ioSummary is a module-wide, memoized does-this-function-touch-disk-or-
// network summary.
type ioSummary struct {
	mod     *Module
	memo    map[*types.Func]bool
	walking map[*types.Func]bool // cycle guard: recursion resolves to false
}

// ioPure names stdlib calls in the I/O packages that never block on disk or
// network — error predicates, env lookups, string splitters, constructors.
var ioPure = map[string]bool{
	"os.IsNotExist": true, "os.IsExist": true, "os.IsPermission": true,
	"os.IsTimeout": true, "os.Getenv": true, "os.Getpid": true,
	"os.TempDir": true, "os.Exit": true,
	"net.JoinHostPort": true, "net.SplitHostPort": true,
	"net/http.StatusText": true, "net/http.CanonicalHeaderKey": true,
	"net/http.NewRequest": true, "net/http.NewRequestWithContext": true,
	"net/http.NotFound": true, "net/http.Error": true,
}

var ioPkgs = map[string]bool{"os": true, "net": true, "net/http": true}

// ioPrimitive classifies a call as directly touching disk or network: a
// package-level call into os/net/net/http (minus the pure helpers), a
// filepath tree walk, or a method on a type from those packages.
func ioPrimitive(pkg *Package, call *ast.CallExpr) (string, bool) {
	if path, name, ok := pkgFuncCall(pkg, call); ok {
		if path == "path/filepath" && (name == "Walk" || name == "WalkDir" || name == "Glob") {
			return "filepath." + name, true
		}
		if ioPkgs[path] && !ioPure[path+"."+name] {
			return path + "." + name, true
		}
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s := pkg.Info.Selections[sel]
	if s == nil {
		return "", false
	}
	f, ok := s.Obj().(*types.Func)
	if !ok || f.Pkg() == nil || !ioPkgs[f.Pkg().Path()] {
		return "", false
	}
	if named, ok := derefType(s.Recv()).(*types.Named); ok {
		return named.Obj().Name() + "." + f.Name(), true
	}
	return f.Name(), true
}

// doesIO reports whether fn (transitively through module-local callees)
// performs blocking disk or network I/O.
func (io *ioSummary) doesIO(fn *types.Func) bool {
	if v, ok := io.memo[fn]; ok {
		return v
	}
	if io.walking[fn] {
		return false
	}
	pkg, body, ok := io.mod.declOf(fn)
	if !ok {
		return false // no body in this module: interface or stdlib, not summarized
	}
	io.walking[fn] = true
	result := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !result
		}
		if _, isIO := ioPrimitive(pkg, call); isIO {
			result = true
		} else if callee := staticCallee(pkg.Info, call); callee != nil && io.doesIO(callee) {
			result = true
		}
		return !result
	})
	delete(io.walking, fn)
	io.memo[fn] = result
	return result
}

// checkLockHeldIO flags blocking I/O performed while a mutex is lexically
// held.
func checkLockHeldIO(p *Pass, sup *suppressions, io *ioSummary, fd *ast.FuncDecl) {
	lockWalkStmts(p, sup, io, fd.Body.List, map[string]token.Pos{})
}

func lockWalkStmts(p *Pass, sup *suppressions, io *ioSummary, stmts []ast.Stmt, held map[string]token.Pos) {
	for _, stmt := range stmts {
		lockWalkStmt(p, sup, io, stmt, held)
	}
}

func cloneLocks(held map[string]token.Pos) map[string]token.Pos {
	c := make(map[string]token.Pos, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func lockWalkStmt(p *Pass, sup *suppressions, io *ioSummary, stmt ast.Stmt, held map[string]token.Pos) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		lockWalkStmts(p, sup, io, s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			lockWalkStmt(p, sup, io, s.Init, held)
		}
		lockCheckCalls(p, sup, io, s.Cond, held)
		lockWalkStmts(p, sup, io, s.Body.List, cloneLocks(held))
		if s.Else != nil {
			lockWalkStmt(p, sup, io, s.Else, cloneLocks(held))
		}
	case *ast.ForStmt:
		inner := cloneLocks(held)
		if s.Init != nil {
			lockWalkStmt(p, sup, io, s.Init, inner)
		}
		if s.Cond != nil {
			lockCheckCalls(p, sup, io, s.Cond, inner)
		}
		lockWalkStmts(p, sup, io, s.Body.List, inner)
	case *ast.RangeStmt:
		lockCheckCalls(p, sup, io, s.X, held)
		lockWalkStmts(p, sup, io, s.Body.List, cloneLocks(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			lockWalkStmt(p, sup, io, s.Init, held)
		}
		if s.Tag != nil {
			lockCheckCalls(p, sup, io, s.Tag, held)
		}
		lockWalkClauses(p, sup, io, s.Body, held)
	case *ast.TypeSwitchStmt:
		lockWalkClauses(p, sup, io, s.Body, held)
	case *ast.SelectStmt:
		lockWalkClauses(p, sup, io, s.Body, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end (correctly —
		// every subsequent statement runs under it); any other deferred work
		// runs after this walk's scope and is not judged here.
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the spawner's locks.
	case *ast.LabeledStmt:
		lockWalkStmt(p, sup, io, s.Stmt, held)
	default:
		if stmt != nil {
			lockCheckCalls(p, sup, io, stmt, held)
		}
	}
}

func lockWalkClauses(p *Pass, sup *suppressions, io *ioSummary, body *ast.BlockStmt, held map[string]token.Pos) {
	if body == nil {
		return
	}
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			stmts = c.Body
		case *ast.CommClause:
			stmts = c.Body
		}
		lockWalkStmts(p, sup, io, stmts, cloneLocks(held))
	}
}

// lockCheckCalls scans one node for lock transitions and, while any lock is
// held, for I/O calls — direct primitives or module-local callees whose
// summary says they touch disk or network.
func lockCheckCalls(p *Pass, sup *suppressions, io *ioSummary, node ast.Node, held map[string]token.Pos) {
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // runs later, without these locks
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if typ, method, base, ok := syncCall(p, call); ok && isMutex(typ) {
			key := types.ExprString(base)
			switch method {
			case "Lock", "RLock":
				held[key] = call.Pos()
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return true
		}
		if len(held) == 0 {
			return true
		}
		what, isIO := ioPrimitive(p.Pkg, call)
		if !isIO {
			if callee := staticCallee(p.Pkg.Info, call); callee != nil && io.doesIO(callee) {
				what, isIO = callee.Name(), true
			}
		}
		if isIO {
			var lock string
			var lockPos token.Pos
			for k, pos := range held {
				if lock == "" || pos > lockPos {
					lock, lockPos = k, pos
				}
			}
			sup.report(call.Pos(), "blocking I/O (%s) while holding %s (locked at line %d): every other goroutine contending for the lock stalls behind the disk or network — release before the call or move the I/O out", what, lock, p.Mod.Fset.Position(lockPos).Line)
		}
		return true
	})
}
