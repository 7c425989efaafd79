// Package lint implements mclint, the repository's domain-aware static
// analyzer. Built only on the standard library (go/ast, go/parser,
// go/types, go/token, go/importer), it loads every package of the
// module, type-checks module-internal dependencies from source (so
// facts about an object mean the same thing in every package that sees
// it), and runs a set of passes that enforce invariants ordinary Go
// tooling cannot know about.
//
// # The pass framework
//
// A pass (Analyzer) sees one package at a time through a Pass value:
// the parsed files, the go/types information, a Reporter, and the
// module-wide Facts store. Passes that need cross-package knowledge —
// the Backend interface declared in another package, an annotation on
// a callee, the module call graph — implement Collector: every collector runs
// over every package of the load before any pass reports a finding, so
// facts are complete by the time Run executes. Object identity is
// stable across packages (module-internal imports are type-checked
// from source, not re-read from export data), so facts key directly on
// types.Object.
//
// # Syntactic and shallow type-aware passes
//
//	floateq    – no ==/!= between floating-point expressions outside
//	             the allowlisted epsilon-helper file (internal/mc/feq.go);
//	             schedulability math must compare with a tolerance.
//	globalrand – no global math/rand functions (rand.Float64, rand.Intn,
//	             rand.Seed, ...) in non-test code; stochastic paths must
//	             thread a seeded *rand.Rand for reproducibility.
//	rawtask    – no raw mc.Task / mc.TaskSet struct or slice literals
//	             outside internal/mc; the validating constructors
//	             (mc.NewTask, mc.MustTask) are the only entry points
//	             that guarantee WCET monotonicity.
//	panicmsg   – panic messages in internal packages must be static
//	             strings carrying the "pkg: " prefix so invariant
//	             failures are attributable.
//	feasdoc    – exported feasibility predicates (bool-returning
//	             functions) in internal/edfvd and internal/partition
//	             must cite the paper equation, theorem or algorithm
//	             they implement in their doc comment.
//	ctxfirst   – exported functions in internal/runner and
//	             internal/experiments that accept a context.Context
//	             must take it as the first parameter, so cancellation
//	             plumbing stays auditable.
//	handlerctx – no context.Background or context.TODO anywhere in
//	             internal/serve (the admission daemon):
//	             every context in a request path must descend from the
//	             request, or work outlives deadlines and drains.
//	obsname    – metric names passed to obs.Registry registration
//	             methods must be compile-time constant strings that
//	             satisfy obs.ValidName, and each full name may be
//	             registered at only one call site per package (a second
//	             site is a latent registration panic).
//
// # Type-aware invariant passes (mclint v2)
//
//	allocfree      – functions annotated //mc:allocfree must not
//	                 contain allocation-introducing constructs
//	                 (interface boxing, escaping closures, append
//	                 outside the slab-reuse idiom, map writes, string
//	                 concatenation, variadic fan-in, fmt calls, and
//	                 make/new outside a cap-guarded growth branch), and
//	                 every statically-resolved module callee must carry
//	                 the annotation too.
//	determinism    – no map iteration without key sorting, time.Now,
//	                 global math/rand, or sync.Map.Range in any
//	                 function reachable (over the module call graph)
//	                 from a //mc:deterministic serialization root; the
//	                 static twin of the byte-identical-resume tests.
//	scalarboundary – the partition.Backend interface and every module
//	                 type implementing it must keep the scalar-only
//	                 boundary: no slice/map/interface/chan/func values
//	                 cross beyond the declared exceptions.
//	atomicmix      – a struct field passed to sync/atomic functions
//	                 anywhere in the module may never be read or
//	                 written plainly elsewhere.
//
// A finding can be suppressed by the line above it (or a trailing
// comment on the same line):
//
//	//lint:ignore mclint/<pass> <reason>
//
// The reason is mandatory; a directive without one is itself a finding.
// Test files are not analyzed: tests legitimately construct adversarial
// fixtures that production code must not.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one pass violation at a position.
type Finding struct {
	// Pass is the short pass name ("floateq", "allocfree", ...).
	Pass string
	// Pkg is the import path of the package the finding is in.
	Pkg string
	// Pos locates the offending node.
	Pos token.Position
	// Message describes the violation and the sanctioned alternative.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [mclint/%s]", f.Pos, f.Message, f.Pass)
}

// Reporter records one violation at a node.
type Reporter func(node ast.Node, format string, args ...any)

// Pass is one analyzer's view of one package: the type-checked package
// under inspection, the module-wide fact store, and the reporter
// findings go through. The same Pass shape serves both phases; during
// fact collection the Reporter still works (collectors normally record
// facts and leave reporting to Run, but grammar-level findings may be
// raised early).
type Pass struct {
	// Pkg is the package under inspection.
	Pkg *Package
	// Facts is the module-wide cross-pass fact store. It is shared by
	// every pass of a Runner.Run call and complete (all collectors have
	// run over all packages) by the time any Run executes.
	Facts *Facts
	// Report records one finding at a node of Pkg.
	Report Reporter
}

// Analyzer is one mclint pass. Implementations are stateless with
// respect to Run: per-run state lives in the Facts store, so the same
// analyzer value may be run over many packages and many loads.
type Analyzer interface {
	// Name is the short identifier used in -pass/-disable flags and
	// //lint:ignore directives.
	Name() string
	// Doc is a one-line description for -list output.
	Doc() string
	// Run inspects one package and reports violations.
	Run(p *Pass)
}

// Collector is implemented by analyzers that need module-wide facts:
// Collect is invoked for every package of the load (in import-path
// order) before any analyzer's Run, so Run may rely on facts about
// packages other than the one it is inspecting.
type Collector interface {
	Collect(p *Pass)
}

// DefaultPasses returns the full pass set configured for the module
// with the given module path.
func DefaultPasses(modulePath string) []Analyzer {
	internal := modulePath + "/internal/"
	return []Analyzer{
		&FloatEq{Allow: []string{"internal/mc/feq.go"}},
		&GlobalRand{},
		&RawTask{MCPath: modulePath + "/internal/mc"},
		&PanicMsg{InternalPrefix: internal},
		&FeasDoc{Packages: []string{
			modulePath + "/internal/edfvd",
			modulePath + "/internal/partition",
		}},
		&CtxFirst{Packages: []string{
			modulePath + "/internal/runner",
			modulePath + "/internal/experiments",
		}},
		&HandlerCtx{Prefixes: []string{modulePath + "/internal/serve"}},
		&ObsName{ObsPath: modulePath + "/internal/obs"},
		&AllocFree{},
		&Determinism{},
		&ScalarBoundary{PartitionPath: modulePath + "/internal/partition"},
		&AtomicMix{},
	}
}

// PassNames returns the names of all known passes, for directive and
// flag validation (independent of which passes are enabled).
func PassNames(modulePath string) []string {
	passes := DefaultPasses(modulePath)
	names := make([]string, len(passes))
	for i, a := range passes {
		names[i] = a.Name()
	}
	return names
}

// directiveRule is the pseudo-pass name under which malformed
// //lint:ignore directives are reported. It cannot be suppressed.
const directiveRule = "directive"

// annotationRule is the pseudo-pass name under which malformed //mc:
// annotations are reported. It cannot be suppressed.
const annotationRule = "annotation"

// Runner executes a pass set over packages and applies suppression
// directives. A Runner value is single-use per Run call with respect
// to facts: every Run starts from an empty fact store.
type Runner struct {
	// Passes is the enabled pass set.
	Passes []Analyzer
	// KnownPasses validates directive targets; defaults to the names of
	// Passes when empty, so directives for disabled passes stay legal
	// only if KnownPasses includes them.
	KnownPasses []string
}

// Run checks every package and returns the surviving findings sorted
// by position. Fact collection (including //mc: annotation scanning)
// runs over all packages first; pass the full module load even when
// only a subtree's findings are wanted, and filter afterwards —
// cross-package facts (registration sites, annotations on callees, the
// call graph) are only complete over the whole module.
func (r *Runner) Run(pkgs []*Package) []Finding {
	known := make(map[string]bool)
	for _, n := range r.KnownPasses {
		known[n] = true
	}
	for _, a := range r.Passes {
		known[a.Name()] = true
	}

	facts := NewFacts()
	var out []Finding

	sup := make(map[*Package]suppressions)
	for _, pkg := range pkgs {
		s, bad := collectDirectives(pkg, known)
		sup[pkg] = s
		out = append(out, bad...)
		out = append(out, collectAnnotations(pkg, facts)...)
	}

	// Phase 1: module-wide fact collection. Collectors see every
	// package before any pass reports, so Run phases may rely on
	// complete cross-package facts.
	report := func(pkg *Package, name string) Reporter {
		return func(node ast.Node, format string, args ...any) {
			pos := pkg.Fset.Position(node.Pos())
			if sup[pkg].covers(pos.Filename, pos.Line, name) {
				return
			}
			out = append(out, Finding{
				Pass:    name,
				Pkg:     pkg.ImportPath,
				Pos:     pos,
				Message: fmt.Sprintf(format, args...),
			})
		}
	}
	for _, a := range r.Passes {
		c, ok := a.(Collector)
		if !ok {
			continue
		}
		for _, pkg := range pkgs {
			c.Collect(&Pass{Pkg: pkg, Facts: facts, Report: report(pkg, a.Name())})
		}
	}

	// Phase 2: per-package runs.
	for _, pkg := range pkgs {
		for _, a := range r.Passes {
			a.Run(&Pass{Pkg: pkg, Facts: facts, Report: report(pkg, a.Name())})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
	return out
}

// suppressions indexes //lint:ignore directives: file -> line -> passes
// suppressed on that line. A directive on line L covers findings on L
// (trailing comment) and L+1 (comment above the code).
type suppressions map[string]map[int]map[string]bool

func (s suppressions) add(file string, line int, pass string) {
	byLine, ok := s[file]
	if !ok {
		byLine = make(map[int]map[string]bool)
		s[file] = byLine
	}
	for _, l := range [2]int{line, line + 1} {
		if byLine[l] == nil {
			byLine[l] = make(map[string]bool)
		}
		byLine[l][pass] = true
	}
}

func (s suppressions) covers(file string, line int, pass string) bool {
	return s[file][line][pass]
}

// collectDirectives scans a package's comments for //lint:ignore
// directives, returning the suppression index and findings for
// malformed directives (missing reason, unknown pass, bad target).
func collectDirectives(pkg *Package, known map[string]bool) (suppressions, []Finding) {
	sup := make(suppressions)
	var bad []Finding
	report := func(pos token.Position, format string, args ...any) {
		bad = append(bad, Finding{
			Pass: directiveRule, Pkg: pkg.ImportPath, Pos: pos,
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					report(pos, "lint:ignore directive needs a pass (\"mclint/<pass>\") and a reason")
					continue
				}
				target, ok := strings.CutPrefix(fields[0], "mclint/")
				if !ok {
					report(pos, "lint:ignore target %q must be of the form mclint/<pass>", fields[0])
					continue
				}
				if !known[target] {
					report(pos, "lint:ignore targets unknown pass mclint/%s", target)
					continue
				}
				if len(fields) < 2 {
					report(pos, "lint:ignore mclint/%s needs a written reason", target)
					continue
				}
				sup.add(pos.Filename, pos.Line, target)
			}
		}
	}
	return sup, bad
}
