package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// StageDeps proves the per-stage cache keys of the staged engine
// (internal/stage) sound. A content-addressed stage cache is correct only if
// each stage's key covers everything the stage actually reads; stagedeps
// proves that stage by stage. The whole-flow Config.Key is the report stage's
// artifact ID, so the same proof covers it.
//
// The stages are the cases of one dispatch function, the body the flow's DAG
// walk runs for every node, marked in its doc comment:
//
//	//tmi3dvet:dispatch
//	func dispatch(cfg Config, name string, in *inputs) (any, error) {
//		switch name {
//		case "synth":
//			...
//
// Each case clause of its switch over stage-name constants is one stage's
// region, named by its constant — the string the DAG and the manifest use.
// From each region the analyzer computes, transitively through same-package
// calls (including Config methods like DeriveSeed):
//
//   - the Config fields the stage reads — a bare use of a whole Config value
//     (Result{Config: cfg}) reads every field;
//   - the package-level variables it touches (ambient state).
//
// The Config read set is then diffed against the package's declarative
// manifest, a package-level
//
//	var StageKeys = map[string][]string{"synth": {"Circuit", ...}, ...}
//
// (internal/flow/stagekeys.go): a field the stage reads but its key omits
// would serve stale cached artifacts when that field changes; a dead key
// field needlessly splits identical artifacts into distinct cache entries; an
// ambient read that is not provably key-addressed-and-immutable
// (globalstate.go) cannot be covered by any Config-derived key at all. Two
// rules keep every read inside a case: the dispatch may read its Config
// parameter only within a stage case, and its other parameters — the
// executor state it is handed — must hold no Config of their own. Everything
// else a stage consumes is the value of a declared dep, which the walk
// enforces at run time. The computed read sets are exported through
// Pass.ExportStage so cmd/tmi3dvet -json can hand the measured dependency
// surface to CI.
//
// Soundness posture: same-package transitivity plus the globalmut contract on
// the leaf packages. Cross-package callees (place.Run, sta.Analyze) cannot
// read flow.Config — they receive individual fields as arguments, which this
// analyzer sees at the call site — and their own ambient state is policed by
// globalmut/seedpurity in those packages, so the composition covers the whole
// read surface.
var StageDeps = &Analyzer{
	Name: "stagedeps",
	Doc:  "verifies per-stage Config read sets against the StageKeys manifest",
	Run:  runStageDeps,
}

// StageReads is the computed read set of one stage of a dispatch function —
// the measured dependency surface a per-stage cache key must cover.
type StageReads struct {
	Package      string   `json:"package"`
	Func         string   `json:"func"`
	Stage        string   `json:"stage"`
	ConfigFields []string `json:"config_fields"`
	Globals      []string `json:"globals,omitempty"`
}

// stageManifest is the parsed StageKeys literal.
type stageManifest struct {
	pos     token.Pos
	entries map[string]*manifestEntry
}

type manifestEntry struct {
	pos    token.Pos
	fields map[string]token.Pos // declared field -> element position
	used   bool
}

func runStageDeps(p *Pass) {
	var dispatches []*ast.FuncDecl
	for _, fd := range p.Pkg.Funcs {
		if isDispatch(fd.Decl) {
			dispatches = append(dispatches, fd.Decl)
		}
	}
	if len(dispatches) == 0 {
		return
	}
	cfgType := findConfigType(p)
	manifest := parseStageKeys(p)
	if manifest == nil {
		p.Reportf(dispatches[0].Name.Pos(), "package has a //tmi3dvet:dispatch function but no StageKeys manifest: declare var StageKeys = map[string][]string{stage: {Config fields}} so the incremental cache has a per-stage key contract")
	}
	sums := newEffects(p, cfgType)
	gs := classifyGlobals(p)
	sup := collectSuppressions(p, "global") // consult-only; globalmut owns the audit
	for _, fd := range dispatches {
		checkDispatch(p, fd, cfgType, manifest, sums, gs, sup)
	}
	if manifest != nil {
		for _, n := range sortedKeys(manifest.entries, strings.Compare) {
			if e := manifest.entries[n]; !e.used {
				p.Reportf(e.pos, "StageKeys entry %q matches no case of a //tmi3dvet:dispatch function: dead manifest stage — delete it or add the stage", n)
			}
		}
	}
}

// isDispatch reports whether a function's doc comment carries the
// //tmi3dvet:dispatch directive.
func isDispatch(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if _, ok := cutDirective(c, "dispatch"); ok {
			return true
		}
	}
	return false
}

// findConfigType resolves the package's Config named type, if any.
func findConfigType(p *Pass) *types.Named {
	obj, ok := p.Pkg.Types.Scope().Lookup("Config").(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// parseStageKeys reads the package's StageKeys map literal. Non-literal
// manifests are reported: the analyzer (and the cache builder) must be able
// to read the contract statically.
func parseStageKeys(p *Pass) *stageManifest {
	id, lit := manifestLit(p.Pkg, "StageKeys")
	if id == nil {
		return nil
	}
	if lit == nil {
		p.Reportf(id.Pos(), "StageKeys must be a literal map[string][]string so stagedeps and the cache builder can read it statically")
		return nil
	}
	m := &stageManifest{pos: id.Pos(), entries: map[string]*manifestEntry{}}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		stage, ok := constString(p.Pkg.Info, kv.Key)
		if !ok {
			p.Reportf(kv.Key.Pos(), "StageKeys stage name must be a string constant")
			continue
		}
		entry := &manifestEntry{pos: kv.Key.Pos(), fields: map[string]token.Pos{}}
		vlit, ok := kv.Value.(*ast.CompositeLit)
		if !ok {
			p.Reportf(kv.Value.Pos(), "StageKeys[%q] must be a literal []string of Config field names", stage)
			continue
		}
		for _, fe := range vlit.Elts {
			field, ok := constString(p.Pkg.Info, fe)
			if !ok {
				p.Reportf(fe.Pos(), "StageKeys[%q] element must be a string constant naming a Config field", stage)
				continue
			}
			if _, dup := entry.fields[field]; dup {
				p.Reportf(fe.Pos(), "StageKeys[%q] lists Config.%s twice", stage, field)
				continue
			}
			entry.fields[field] = fe.Pos()
		}
		m.entries[stage] = entry
	}
	return m
}

// stageAccum collects one stage's read set.
type stageAccum struct {
	name    string
	pos     token.Pos // the case constant
	fields  map[string]token.Pos
	globals map[types.Object]token.Pos
}

func newStageAccum(name string, pos token.Pos) *stageAccum {
	return &stageAccum{name: name, pos: pos, fields: map[string]token.Pos{}, globals: map[types.Object]token.Pos{}}
}

// stageCase is one case clause of the stage switch and the stage-name
// constants it lists.
type stageCase struct {
	clause *ast.CaseClause
	names  []ast.Expr
}

func checkDispatch(p *Pass, fd *ast.FuncDecl, cfgType *types.Named, manifest *stageManifest, sums *effects, gs *globalState, sup *suppressions) {
	sw, cases := stageSwitch(p, fd)
	if manifest != nil {
		// Mark the named stages before any early return, so one malformed
		// dispatch does not cascade into dead-manifest findings.
		for _, sc := range cases {
			for _, e := range sc.names {
				name, _ := constString(p.Pkg.Info, e)
				if entry := manifest.entries[name]; entry != nil {
					entry.used = true
				}
			}
		}
	}
	if cfgType == nil {
		p.Reportf(fd.Name.Pos(), "%s is a //tmi3dvet:dispatch function but the package declares no Config struct: stagedeps has no key domain to verify", fd.Name.Name)
		return
	}
	if !checkDispatchParams(p, fd, cfgType) {
		return
	}
	if sw == nil {
		p.Reportf(fd.Name.Pos(), "%s is a //tmi3dvet:dispatch function without a switch over stage-name constants: each case names the stage it runs", fd.Name.Name)
		return
	}

	// Config reads outside every stage case belong to no stage key.
	skip := map[ast.Node]bool{}
	for _, sc := range cases {
		if len(sc.names) > 0 {
			skip[sc.clause] = true
		}
	}
	outside := newStageAccum("", fd.Pos())
	scanReads(p, sums, cfgType, fd.Body, skip, outside)
	for _, f := range sortedKeys(outside.fields, strings.Compare) {
		p.Reportf(outside.fields[f], "%s reads Config.%s outside a stage case: no stage key covers it — move the read into the case of the stage that needs it", fd.Name.Name, f)
	}

	fieldSet := configFieldSet(cfgType)
	for _, sc := range cases {
		for _, e := range sc.names {
			name, _ := constString(p.Pkg.Info, e)
			acc := newStageAccum(name, e.Pos())
			for _, st := range sc.clause.Body {
				scanReads(p, sums, cfgType, st, nil, acc)
			}
			reportStage(p, manifest, fieldSet, acc, gs, sup)
			p.ExportStage(StageReads{
				Package:      p.Pkg.Path,
				Func:         fd.Name.Name,
				Stage:        acc.name,
				ConfigFields: sortedKeys(acc.fields, strings.Compare),
				Globals:      globalNames(acc.globals),
			})
		}
	}
}

// stageSwitch finds the dispatch's switch over stage-name constants — the
// first expression switch whose cases are string constants — and its cases.
// A non-constant case expression is reported; a default clause names no
// stage, so reads there count as outside every case.
func stageSwitch(p *Pass, fd *ast.FuncDecl) (*ast.SwitchStmt, []stageCase) {
	var sw *ast.SwitchStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		s, ok := n.(*ast.SwitchStmt)
		if !ok || sw != nil {
			return sw == nil
		}
		for _, stmt := range s.Body.List {
			if cc := stmt.(*ast.CaseClause); len(cc.List) > 0 {
				if _, ok := constString(p.Pkg.Info, cc.List[0]); ok {
					sw = s
					return false
				}
			}
		}
		return true
	})
	if sw == nil {
		return nil, nil
	}
	var cases []stageCase
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		sc := stageCase{clause: cc}
		for _, e := range cc.List {
			if _, ok := constString(p.Pkg.Info, e); !ok {
				p.Reportf(e.Pos(), "stage case in %s is not a string constant: name each stage as the DAG and StageKeys do", fd.Name.Name)
				continue
			}
			sc.names = append(sc.names, e)
		}
		cases = append(cases, sc)
	}
	return sw, cases
}

// checkDispatchParams requires exactly one Config parameter and no Config
// held by any other parameter or the receiver: the executor state a dispatch
// is handed must not carry a second route to the config, past the per-case
// attribution. It reports false when the dispatch has no Config parameter.
func checkDispatchParams(p *Pass, fd *ast.FuncDecl, cfgType *types.Named) bool {
	var fields []*ast.Field
	if fd.Recv != nil {
		fields = append(fields, fd.Recv.List...)
	}
	fields = append(fields, fd.Type.Params.List...)
	haveCfg := false
	for _, fld := range fields {
		for _, nm := range fld.Names {
			v, ok := p.Pkg.Info.Defs[nm].(*types.Var)
			if !ok {
				continue
			}
			if derefType(v.Type()) == cfgType && !haveCfg {
				haveCfg = true
				continue
			}
			if path := configHolder(v.Type(), cfgType, map[types.Type]bool{}); path != "" {
				p.Reportf(nm.Pos(), "%s's executor state %s%s holds a Config besides the dispatch's Config parameter: a stage reading it escapes its stage key — pass the config only as that parameter", fd.Name.Name, nm.Name, path)
			}
		}
	}
	if !haveCfg {
		p.Reportf(fd.Name.Pos(), "%s is a //tmi3dvet:dispatch function but has no Config parameter: stagedeps cannot attribute reads to a key domain", fd.Name.Name)
	}
	return haveCfg
}

// configHolder returns the access path to a Config held by a value of type t
// — itself, or through pointers, struct fields, and element types — or "".
func configHolder(t types.Type, cfgType *types.Named, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	if t == cfgType {
		return " (a Config)"
	}
	switch u := t.(type) {
	case *types.Named:
		return configHolder(u.Underlying(), cfgType, seen)
	case *types.Pointer:
		return configHolder(u.Elem(), cfgType, seen)
	case *types.Slice:
		return configHolder(u.Elem(), cfgType, seen)
	case *types.Array:
		return configHolder(u.Elem(), cfgType, seen)
	case *types.Map:
		return configHolder(u.Elem(), cfgType, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if derefType(f.Type()) == cfgType {
				return "." + f.Name()
			}
			if sub := configHolder(f.Type(), cfgType, seen); sub != "" {
				return "." + f.Name() + sub
			}
		}
	}
	return ""
}

func configFieldSet(cfgType *types.Named) map[string]bool {
	set := map[string]bool{}
	st := cfgType.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		set[st.Field(i).Name()] = true
	}
	return set
}

// reportStage diffs one stage's computed read set against the manifest and
// flags uncovered ambient state.
func reportStage(p *Pass, manifest *stageManifest, fieldSet map[string]bool, acc *stageAccum, gs *globalState, sup *suppressions) {
	if manifest != nil {
		entry := manifest.entries[acc.name]
		if entry == nil {
			p.Reportf(acc.pos, "stage %q has no StageKeys entry: the incremental cache cannot key this stage — add StageKeys[%q] covering %s", acc.name, acc.name, fieldList(sortedKeys(acc.fields, strings.Compare)))
		} else {
			entry.used = true
			for _, f := range sortedKeys(acc.fields, strings.Compare) {
				if _, ok := entry.fields[f]; !ok {
					p.Reportf(acc.fields[f], "stage %q reads Config.%s but StageKeys[%q] omits it: a cache keyed by the manifest would serve stale %s artifacts when %s changes — add it to the stage key", acc.name, f, acc.name, acc.name, f)
				}
			}
			for _, f := range sortedKeys(entry.fields, strings.Compare) {
				switch {
				case !fieldSet[f]:
					p.Reportf(entry.fields[f], "StageKeys[%q] names %s, which is not a field of Config", acc.name, f)
				case acc.fields[f] == token.NoPos:
					p.Reportf(entry.fields[f], "dead key field: StageKeys[%q] lists Config.%s but the stage never reads it — a wider key splits identical artifacts into distinct cache entries", acc.name, f)
				}
			}
		}
	}
	// Ambient state: a read the stage key cannot cover. Only globals the
	// classifier cannot prove key-addressed or immutable are findings;
	// //tmi3dvet:global at the site (audited by globalmut) is honored.
	for _, obj := range sortedKeys(acc.globals, byNameThenPos) {
		switch gs.classOf(obj) {
		case gcReadOnly, gcSync, gcOncePublished, gcGuardedMap:
			continue
		}
		sup.report(acc.globals[obj], "stage %q reads ambient package state %s that no Config-derived key can cover: make it key-addressed behind a sync.Once or annotate //tmi3dvet:global <reason>", acc.name, obj.Name())
	}
}

func fieldList(fields []string) string {
	if len(fields) == 0 {
		return "no Config fields"
	}
	return "[" + strings.Join(fields, " ") + "]"
}

// scanReads attributes the Config field reads (direct, transitive through
// same-package calls, and whole-Config uses) and global touches under root to
// acc, skipping the subtrees in skip.
func scanReads(p *Pass, sums *effects, cfgType *types.Named, root ast.Node, skip map[ast.Node]bool, acc *stageAccum) {
	addField := func(name string, pos token.Pos) {
		if _, ok := acc.fields[name]; !ok {
			acc.fields[name] = pos
		}
	}
	addAll := func(pos token.Pos) {
		st := cfgType.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			addField(st.Field(i).Name(), pos)
		}
	}
	addGlobal := func(obj types.Object, pos token.Pos) {
		if _, ok := acc.globals[obj]; !ok {
			acc.globals[obj] = pos
		}
	}
	pkgScope := p.Pkg.Types.Scope()
	// Idents used as a selector base are judged at the selector; a bare
	// Config-typed use elsewhere reads the whole struct.
	selBases := map[*ast.Ident]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				selBases[id] = true
			}
		}
		return true
	})
	ast.Inspect(root, func(n ast.Node) bool {
		if skip[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel := p.Pkg.Info.Selections[n]; sel != nil {
				if f, ok := sel.Obj().(*types.Var); ok && f.IsField() && fieldOfConfig(cfgType, f) {
					addField(f.Name(), n.Pos())
				}
			}
		case *ast.CallExpr:
			if callee := staticCallee(p.Pkg.Info, n); callee != nil && callee.Pkg() == p.Pkg.Types {
				if sum := sums.summarize(callee); sum != nil {
					if sum.allFields {
						addAll(n.Pos())
					}
					for _, fname := range sortedKeys(sum.fields, strings.Compare) {
						addField(fname, n.Pos())
					}
					for _, obj := range sortedKeys(sum.globals, byNameThenPos) {
						addGlobal(obj, n.Pos())
					}
				}
			}
		case *ast.Ident:
			v, ok := p.Pkg.Info.Uses[n].(*types.Var)
			if !ok {
				return true
			}
			switch {
			case v.Parent() == pkgScope:
				addGlobal(v, n.Pos())
			case derefType(v.Type()) == cfgType && !selBases[n]:
				// Whole-Config use: copies every field.
				addAll(n.Pos())
			}
		}
		return true
	})
}

func fieldOfConfig(cfgType *types.Named, f *types.Var) bool {
	st := cfgType.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == f {
			return true
		}
	}
	return false
}

func globalNames(m map[types.Object]token.Pos) []string {
	out := make([]string, 0, len(m))
	for _, o := range sortedKeys(m, byNameThenPos) {
		out = append(out, o.Name())
	}
	return out
}
