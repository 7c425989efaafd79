// Command mclint runs the repository's domain-aware static analysis
// (see internal/lint) over the module:
//
//	go run ./cmd/mclint ./...            # whole module
//	go run ./cmd/mclint ./internal/...   # subtree
//	go run ./cmd/mclint -pass=allocfree,determinism ./...
//	go run ./cmd/mclint -disable=feasdoc ./...
//	go run ./cmd/mclint -json ./...      # machine-readable findings
//	go run ./cmd/mclint -list            # describe the passes
//
// Findings are printed as file:line:col with the offending pass (or as
// a JSON array with -json); the exit status is 1 when any finding
// survives, 2 on load errors. Suppress a single finding with a
// preceding comment:
//
//	//lint:ignore mclint/<pass> <reason>
//
// Cross-package facts — //mc:allocfree annotations on callees, the
// partition.Backend interface, the determinism call graph — are only
// complete over the whole module, so analysis always runs over every package;
// the CLI patterns select which packages' findings are printed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"catpa/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it returns the process exit code,
// 0 when clean (or -h), 1 on findings and 2 on usage or load errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		pass    = fs.String("pass", "", "comma-separated pass names to run exclusively (default: all)")
		disable = fs.String("disable", "", "comma-separated pass names to disable")
		jsonOut = fs.Bool("json", false, "emit findings as a JSON array on stdout")
		list    = fs.Bool("list", false, "list the available passes and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mclint [-pass=pass,...] [-disable=pass,...] [-json] [-list] [packages]\n\npackages default to ./...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	patterns := fs.Args()

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "mclint:", err)
		return 2
	}
	passes := lint.DefaultPasses(loader.ModulePath)

	if *list {
		for _, a := range passes {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	known := make(map[string]bool)
	for _, n := range lint.PassNames(loader.ModulePath) {
		known[n] = true
	}
	nameSet := func(flagName, csv string) (map[string]bool, bool) {
		set := make(map[string]bool)
		for _, name := range strings.Split(csv, ",") {
			if name = strings.TrimSpace(name); name != "" {
				if !known[name] {
					fmt.Fprintf(stderr, "mclint: unknown pass %q in -%s (try -list)\n", name, flagName)
					return nil, false
				}
				set[name] = true
			}
		}
		return set, true
	}
	only, ok := nameSet("pass", *pass)
	if !ok {
		return 2
	}
	disabled, ok := nameSet("disable", *disable)
	if !ok {
		return 2
	}
	enabled := passes[:0]
	for _, a := range passes {
		if disabled[a.Name()] {
			continue
		}
		if len(only) > 0 && !only[a.Name()] {
			continue
		}
		enabled = append(enabled, a)
	}
	if len(enabled) == 0 {
		fmt.Fprintln(stderr, "mclint: the -pass/-disable combination enables no passes")
		return 2
	}

	pkgs, err := loader.Load()
	if err != nil {
		fmt.Fprintln(stderr, "mclint:", err)
		return 2
	}
	selected, err := selectPackages(pkgs, patterns, loader.ModulePath, loader.ModuleRoot)
	if err != nil {
		fmt.Fprintln(stderr, "mclint:", err)
		return 2
	}
	if len(selected) == 0 {
		// A typo'd pattern silently passing would defeat the gate.
		fmt.Fprintf(stderr, "mclint: no packages match %s\n", strings.Join(patterns, " "))
		return 2
	}

	// Analyze the whole module (facts must be complete), then keep the
	// findings belonging to the selected packages.
	runner := &lint.Runner{Passes: enabled, KnownPasses: lint.PassNames(loader.ModulePath)}
	all := runner.Run(pkgs)
	findings := all[:0]
	for _, f := range all {
		if selected[f.Pkg] {
			findings = append(findings, f)
		}
	}

	cwd, _ := os.Getwd()
	relativize := func(name string) string {
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
		return name
	}
	if *jsonOut {
		type jsonFinding struct {
			Pass    string `json:"pass"`
			Package string `json:"package"`
			File    string `json:"file"`
			Line    int    `json:"line"`
			Column  int    `json:"column"`
			Message string `json:"message"`
		}
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Pass:    f.Pass,
				Package: f.Pkg,
				File:    relativize(f.Pos.Filename),
				Line:    f.Pos.Line,
				Column:  f.Pos.Column,
				Message: f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "mclint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			pos := f.Pos
			pos.Filename = relativize(pos.Filename)
			fmt.Fprintf(stdout, "%s: %s [mclint/%s]\n", pos, f.Message, f.Pass)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stdout, "mclint: %d finding(s) in %d package(s)\n", len(findings), len(selected))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// selectPackages returns the import paths matching the CLI patterns.
// Supported forms: "./..." (everything), "./dir/..." (subtree),
// "./dir" (exact), and plain import paths with or without "/...".
func selectPackages(pkgs []*lint.Package, patterns []string, modulePath, moduleRoot string) (map[string]bool, error) {
	keep := make(map[string]bool)
	if len(patterns) == 0 {
		for _, pkg := range pkgs {
			keep[pkg.ImportPath] = true
		}
		return keep, nil
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, pkg := range pkgs {
		for _, pat := range patterns {
			ok, err := matchPattern(pkg.ImportPath, pat, modulePath, moduleRoot, cwd)
			if err != nil {
				return nil, err
			}
			if ok {
				keep[pkg.ImportPath] = true
				break
			}
		}
	}
	return keep, nil
}

// matchPattern reports whether the import path matches one pattern.
func matchPattern(importPath, pat, modulePath, moduleRoot, cwd string) (bool, error) {
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = rest
		if pat == "." || pat == "" {
			pat = "./."
		}
	}
	if strings.HasPrefix(pat, ".") { // filesystem-relative pattern
		abs := filepath.Clean(filepath.Join(cwd, pat))
		rel, err := filepath.Rel(moduleRoot, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return false, fmt.Errorf("pattern %q is outside the module", pat)
		}
		pat = modulePath
		if rel != "." {
			pat = modulePath + "/" + filepath.ToSlash(rel)
		}
	}
	if importPath == pat {
		return true, nil
	}
	return recursive && strings.HasPrefix(importPath, pat+"/"), nil
}
