package lint

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The tests share one loader: NewLoader shells out to `go list
// -export -deps` once, and every fixture is type-checked through it.
var (
	loaderOnce sync.Once
	testLoader *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		testLoader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return testLoader
}

// checkFixture type-checks src as a single-file package under
// importPath and runs the given passes over it.
func checkFixture(t *testing.T, passes []Analyzer, importPath, filename, src string) []Finding {
	t.Helper()
	ld := sharedLoader(t)
	pkg, err := ld.CheckSource(importPath, filename, src)
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	runner := &Runner{Passes: passes, KnownPasses: PassNames("catpa")}
	return runner.Run([]*Package{pkg})
}

// checkTestdata runs the passes over the named fixture file from
// internal/lint/testdata. The go tool ignores the testdata directory,
// so fixtures can seed violations without breaking the build; they
// still type-check against the real module packages through the shared
// loader.
func checkTestdata(t *testing.T, passes []Analyzer, filename string) []Finding {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", filename))
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	return checkFixture(t, passes, "catpa/internal/fixture", filename, string(src))
}

// wantLines asserts that the findings of a given pass sit exactly on
// the expected source lines.
func wantLines(t *testing.T, findings []Finding, pass string, want ...int) {
	t.Helper()
	var got []int
	for _, f := range findings {
		if f.Pass == pass {
			got = append(got, f.Pos.Line)
		}
	}
	sort.Ints(got)
	sort.Ints(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("pass %s findings on lines %v, want %v\nall findings: %v", pass, got, want, findings)
	}
}

func TestLoaderLoadsModule(t *testing.T) {
	ld := sharedLoader(t)
	if ld.ModulePath != "catpa" {
		t.Fatalf("module path %q, want catpa", ld.ModulePath)
	}
	pkgs, err := ld.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	byPath := make(map[string]*Package)
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	for _, want := range []string{"catpa", "catpa/internal/mc", "catpa/internal/edfvd", "catpa/cmd/mclint", "catpa/internal/lint"} {
		if byPath[want] == nil {
			t.Errorf("package %s not loaded", want)
		}
	}
	mc := byPath["catpa/internal/mc"]
	if mc == nil {
		t.Fatal("no mc package")
	}
	for _, f := range mc.Files {
		name := mc.FileOf(f.Pos())
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("test file %s was loaded", name)
		}
	}
	if mc.Types.Scope().Lookup("NewTask") == nil {
		t.Error("mc.NewTask not in type-checked scope")
	}
}

// TestLoaderObjectIdentity is the property the whole fact store rests
// on: a function object imported into another package is the same
// *types.Func the defining package declared, because module-internal
// imports are type-checked from source rather than re-read from export
// data.
func TestLoaderObjectIdentity(t *testing.T) {
	ld := sharedLoader(t)
	pkgs, err := ld.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	byPath := make(map[string]*Package)
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	mc := byPath["catpa/internal/mc"]
	part := byPath["catpa/internal/partition"]
	if mc == nil || part == nil {
		t.Fatal("mc or partition package not loaded")
	}
	def := mc.Types.Scope().Lookup("NewTask")
	var imported *types.Package
	for _, imp := range part.Types.Imports() {
		if imp.Path() == "catpa/internal/mc" {
			imported = imp
		}
	}
	if imported == nil {
		t.Fatal("partition does not import mc")
	}
	if use := imported.Scope().Lookup("NewTask"); use != def {
		t.Errorf("mc.NewTask object differs across packages: %p vs %p", def, use)
	}
}

func TestSuppressionDirectives(t *testing.T) {
	src := `package fix

func cmpAbove(x, y float64) bool {
	//lint:ignore mclint/floateq deliberate exact comparison for the test
	return x == y
}

func cmpSameLine(x, y float64) bool {
	return x == y //lint:ignore mclint/floateq trailing directive
}

func cmpUnsuppressed(x, y float64) bool {
	return x == y
}

func cmpWrongPass(x, y float64) bool {
	//lint:ignore mclint/rawtask reason does not match the firing pass
	return x == y
}
`
	findings := checkFixture(t, []Analyzer{&FloatEq{}}, "catpa/internal/fix", "fix.go", src)
	wantLines(t, findings, "floateq", 13, 18)
	wantLines(t, findings, directiveRule)
}

func TestMalformedDirectives(t *testing.T) {
	src := `package fix

//lint:ignore mclint/floateq
var a = 1

//lint:ignore floateq missing the mclint/ namespace
var b = 2

//lint:ignore mclint/nosuchpass some reason
var c = 3

//lint:ignore
var d = 4
`
	findings := checkFixture(t, []Analyzer{&FloatEq{}}, "catpa/internal/fix", "fix.go", src)
	wantLines(t, findings, directiveRule, 3, 6, 9, 12)
}

func TestMalformedAnnotations(t *testing.T) {
	src := `package fix

//mc:allocfre typo in the annotation word
func f() {}

// A comment in the middle of nowhere.
//mc:allocfree
var x = 1

//mc:allocfree well-formed, on a function
func g() {}
`
	findings := checkFixture(t, []Analyzer{&AllocFree{}}, "catpa/internal/fix", "fix.go", src)
	wantLines(t, findings, annotationRule, 3, 7)
}

func TestRunnerDisabledPassDirectiveStillKnown(t *testing.T) {
	// A directive naming a pass that is disabled for this run must not
	// be reported as unknown: KnownPasses carries the full name set.
	src := `package fix

func f(x, y float64) bool {
	//lint:ignore mclint/floateq kept while the pass is disabled
	return x == y
}
`
	findings := checkFixture(t, []Analyzer{&GlobalRand{}}, "catpa/internal/fix", "fix.go", src)
	if len(findings) != 0 {
		t.Fatalf("unexpected findings: %v", findings)
	}
}

func TestFindingsSortedByPosition(t *testing.T) {
	src := `package fix

func f(a, b float64) bool { return a == b }
func g(a, b float64) bool { return a != b }
`
	findings := checkFixture(t, []Analyzer{&FloatEq{}}, "catpa/internal/fix", "fix.go", src)
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2", len(findings))
	}
	if findings[0].Pos.Line > findings[1].Pos.Line {
		t.Errorf("findings not sorted: %v", findings)
	}
	if !strings.Contains(findings[0].String(), "fix.go:3") || !strings.Contains(findings[0].String(), "[mclint/floateq]") {
		t.Errorf("finding String() = %q", findings[0].String())
	}
}

func TestDefaultPasses(t *testing.T) {
	passes := DefaultPasses("catpa")
	names := make(map[string]bool)
	for _, a := range passes {
		names[a.Name()] = true
		if a.Doc() == "" {
			t.Errorf("pass %s has no doc", a.Name())
		}
	}
	for _, want := range []string{
		"floateq", "globalrand", "rawtask", "panicmsg", "feasdoc", "ctxfirst", "handlerctx", "obsname",
		"allocfree", "determinism", "scalarboundary", "atomicmix",
	} {
		if !names[want] {
			t.Errorf("missing default pass %s", want)
		}
	}
	if len(passes) != 12 {
		t.Errorf("got %d default passes, want 12", len(passes))
	}
}

// TestRealTreeClean is the self-hosting gate: the full default pass set
// over the whole module — internal/lint and cmd/mclint included — must
// come up clean. Any finding here is either a real regression or a new
// pass's false positive; both block the build.
func TestRealTreeClean(t *testing.T) {
	ld := sharedLoader(t)
	pkgs, err := ld.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	runner := &Runner{Passes: DefaultPasses(ld.ModulePath)}
	findings := runner.Run(pkgs)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
