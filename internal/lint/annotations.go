package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Annotation fact keys. A fact under one of these keys on a
// *types.Func means the function's doc comment carries the matching
// //mc: annotation; the value is the annotation's trailing free text
// (possibly empty).
const (
	// FactAllocFree marks a function whose body must stay free of
	// allocation-introducing constructs (the allocfree pass).
	FactAllocFree = "mc.allocfree"
	// FactDeterministic marks a serialization root: everything
	// statically reachable from it must be reproducible (the
	// determinism pass).
	FactDeterministic = "mc.deterministic"
)

// annotationKinds maps the annotation word after "//mc:" to its fact
// key. The grammar is
//
//	//mc:allocfree [free-text rationale]
//	//mc:deterministic [free-text rationale]
//
// on its own line inside a function's doc comment. Anything else
// spelled "//mc:..." is a malformed annotation and reported under the
// unsuppressable "annotation" pseudo-pass, so a typo like
// //mc:alloc-free cannot silently disable enforcement.
var annotationKinds = map[string]string{
	"allocfree":     FactAllocFree,
	"deterministic": FactDeterministic,
}

// collectAnnotations scans a package for //mc: annotations, records
// well-formed ones as facts on the annotated function object, and
// returns findings for malformed or misplaced ones.
func collectAnnotations(pkg *Package, facts *Facts) []Finding {
	var bad []Finding
	report := func(n ast.Node, format string, args ...any) {
		bad = append(bad, Finding{
			Pass: annotationRule, Pkg: pkg.ImportPath,
			Pos:     pkg.Fset.Position(n.Pos()),
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, file := range pkg.Files {
		// Comments that belong to a function's doc comment may annotate
		// it; every other //mc: comment is misplaced.
		docOf := make(map[*ast.Comment]*types.Func)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil {
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				for _, c := range fd.Doc.List {
					docOf[c] = fn
				}
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//mc:")
				if !ok {
					continue
				}
				word, text, _ := strings.Cut(rest, " ")
				key, known := annotationKinds[word]
				if !known {
					report(c, "unknown annotation //mc:%s (known: //mc:allocfree, //mc:deterministic)", word)
					continue
				}
				fn, inDoc := docOf[c]
				if !inDoc || fn == nil {
					report(c, "//mc:%s must be part of a function's doc comment", word)
					continue
				}
				facts.SetObj(fn, key, strings.TrimSpace(text))
			}
		}
	}
	return bad
}

// funcAnnotated reports whether fn carries the annotation fact key.
// fn may be nil (returns false).
func funcAnnotated(facts *Facts, fn *types.Func, key string) bool {
	if fn == nil {
		return false
	}
	return facts.HasObj(fn, key)
}
