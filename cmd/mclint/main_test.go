package main

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"catpa/internal/lint"
)

// TestList: -list prints one line per pass, named exactly as
// lint.PassNames lists them, and exits 0.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("mclint -list: exit %d, stderr %q", code, stderr.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := lint.PassNames("catpa")
	if !slices.Equal(names, want) || len(names) != 12 {
		t.Errorf("mclint -list names %v, want the 12 passes %v", names, want)
	}
}

// TestUsageErrors: an unknown pass and a flag combination that
// enables nothing both exit 2 before any package is analyzed.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args   []string
		stderr string
	}{
		{[]string{"-pass=backendreg"}, `unknown pass "backendreg"`},
		{[]string{"-pass=floateq", "-disable=floateq"}, "enables no passes"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), c.stderr) || stdout.Len() != 0 {
			t.Errorf("mclint %v: exit %d, stderr %q, stdout %q; want exit 2, stderr containing %q, empty stdout",
				c.args, code, stderr.String(), stdout.String(), c.stderr)
		}
	}
}

// TestCleanPackage: a run over a clean package from the module root
// prints nothing and exits 0.
func TestCleanPackage(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./internal/stats"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 {
		t.Errorf("mclint ./internal/stats: exit %d, stdout %q, stderr %q; want exit 0 and no findings",
			code, stdout.String(), stderr.String())
	}
}
