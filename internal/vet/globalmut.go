package vet

import (
	"sort"
)

// GlobalMut flags reads and writes of mutable package-level state in the
// flow-deterministic packages (plus internal/flow, which owns the process
// caches). Package-level state shared across flow runs is exactly where one
// config's history can leak into another's result: the bug class is a cache
// entry mutated after publication, which silently couples every config that
// shares the entry — undetectable by per-flow determinism tests because each
// process still agrees with itself.
//
// An access is accepted without annotation only when the classifier
// (globalstate.go) can prove the variable is one of:
//
//   - read-only after initialization (constant tables);
//   - a sync primitive (Mutex/RWMutex/Once/WaitGroup);
//   - once-published: every write sits inside a sync.Once.Do callback, and
//     every read sits in a function that synchronizes on a sync.Once — the
//     flow.LibraryCheck shape;
//   - a key-addressed once-cell map: a map of *entry structs each carrying a
//     sync.Once, written only under a mutex, whose payload fields are
//     written only inside the entry's Once.Do — the liberty.Default /
//     flow.generated shape.
//
// Anything else needs a //tmi3dvet:global <reason> suppression on the access
// line (or the line above). Bare and stale suppressions are diagnostics, as
// everywhere in this suite.
var GlobalMut = &Analyzer{
	Name: "globalmut",
	Doc:  "flags mutable package-level state outside key-addressed sync.Once shapes",
	Run:  runGlobalMut,
}

func runGlobalMut(p *Pass) {
	if !GlobalStateScoped(p.Pkg.Path) {
		return
	}
	sup := collectSuppressions(p, "global")
	gs := classifyGlobals(p)
	for _, v := range gs.order {
		info := gs.vars[v]
		switch info.class {
		case gcMutable:
			for _, w := range info.badWrites {
				sup.report(w.pos, "package-level %s written after initialization: mutable global state couples flow runs; make it key-addressed behind a sync.Once (the liberty.Default shape) or annotate //tmi3dvet:global <reason>", v.Name())
			}
			for _, r := range info.reads {
				sup.report(r.pos, "read of mutable package-level %s: its value depends on which flows ran before, so results are not a function of Config; make it key-addressed or annotate //tmi3dvet:global <reason>", v.Name())
			}
		case gcOncePublished:
			for _, r := range info.reads {
				if r.inDoLit || (r.fn != nil && gs.fnFacts[r.fn].callsOnceDo) {
					continue
				}
				sup.report(r.pos, "read of once-published %s in a function that never synchronizes on its sync.Once: the read can observe the unpublished zero value; call the Once.Do accessor instead or annotate //tmi3dvet:global <reason>", v.Name())
			}
		case gcGuardedMap:
			for _, r := range info.reads {
				if r.fn != nil && gs.fnFacts[r.fn].locksMutex {
					continue
				}
				sup.report(r.pos, "read of once-cell map %s outside a mutex-holding function: unsynchronized map access races with entry insertion; access it through the locked accessor or annotate //tmi3dvet:global <reason>", v.Name())
			}
		}
	}
	// Once-cell payload discipline, independent of how the entry was reached:
	// writes only inside the entry's Once.Do, reads only where a Once.Do
	// publication point is in scope.
	accs := append([]entryAccess(nil), gs.entryAccesses...)
	sort.Slice(accs, func(i, j int) bool { return accs[i].pos < accs[j].pos })
	for _, a := range accs {
		if a.write {
			if a.inDoLit {
				continue
			}
			sup.report(a.pos, "field %s of once-cell %s written outside its sync.Once.Do: a cache entry mutated after publication silently couples every config sharing it; move the write into the Do callback or annotate //tmi3dvet:global <reason>", a.field, a.typeName)
			continue
		}
		if a.inDoLit || (a.fn != nil && gs.fnFacts[a.fn].callsOnceDo) {
			continue
		}
		sup.report(a.pos, "read of once-cell field %s.%s in a function that never calls a sync.Once.Do: the payload may not be published yet; read it behind the entry's Once or annotate //tmi3dvet:global <reason>", a.typeName, a.field)
	}
	sup.reportStale("mutable global access")
}
