package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicMix flags mixed atomic/plain access: a variable or struct
// field whose address is passed to a sync/atomic function anywhere in
// the module may never be read or written plainly anywhere else. A
// plain load concurrent with an atomic store is a data race that the
// race detector only catches when the schedule cooperates; statically
// the mix is always wrong. The repository's own counters use the typed
// atomic.Int64 wrappers, which make mixing impossible by construction
// — this pass guards the older address-based API in case it creeps in.
//
// Like determinism, the pass is module-wide: the atomic-use index is
// collected over every package (object identity makes a field marked
// in one package recognizable in all others), then every plain use is
// flagged in the Run phase.
type AtomicMix struct{}

// factAtomicUse marks, per types.Object, the position (string) of the
// first &obj handed to a sync/atomic function.
const factAtomicUse = "atomicmix.use"

// Name implements Analyzer.
func (*AtomicMix) Name() string { return "atomicmix" }

// Doc implements Analyzer.
func (*AtomicMix) Doc() string {
	return "variables accessed via sync/atomic may never be read or written plainly"
}

// Collect implements Collector: record every variable whose address
// flows into a sync/atomic call.
func (a *AtomicMix) Collect(p *Pass) {
	pkg := p.Pkg
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pkg.Info, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if obj := addressedVar(pkg.Info, un.X); obj != nil && !p.Facts.HasObj(obj, factAtomicUse) {
					p.Facts.SetObj(obj, factAtomicUse, pkg.Fset.Position(arg.Pos()).String())
				}
			}
			return true
		})
	}
}

// Run implements Analyzer: flag every use of a marked variable outside
// a sync/atomic call.
func (a *AtomicMix) Run(p *Pass) {
	pkg := p.Pkg
	for _, file := range pkg.Files {
		// All positions inside sync/atomic call expressions are legal
		// uses; collect them first so the flagging walk can skip them.
		var atomicCalls intervals
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isAtomicCall(pkg.Info, call) {
				atomicCalls = append(atomicCalls, span{call.Pos(), call.End()})
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			ident, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pkg.Info.Uses[ident]
			if obj == nil || atomicCalls.contains(ident.Pos()) {
				return true
			}
			if site, marked := p.Facts.Obj(obj, factAtomicUse); marked {
				p.Report(ident, "%s is accessed atomically (e.g. at %s); this plain access races with the atomic ones — use sync/atomic everywhere, or a typed atomic.Int64-style value", obj.Name(), site)
			}
			return true
		})
	}
}

// isAtomicCall reports whether the call statically resolves to a
// sync/atomic package-level function.
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn := staticCallee(info, call.Fun)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
		fn.Type().(*types.Signature).Recv() == nil
}

// addressedVar resolves &X's operand to the variable object it
// ultimately denotes: a plain identifier, or the field of a selector
// chain. Index expressions (&s[i]) return the indexed slice's element —
// not attributable to a single object — and yield nil.
func addressedVar(info *types.Info, x ast.Expr) types.Object {
	switch x := x.(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		// Package-qualified variable (pkg.V): no Selection entry.
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v
		}
	case *ast.ParenExpr:
		return addressedVar(info, x.X)
	}
	return nil
}
