package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes: mcserved exits like the other commands — 1 on a bad
// flag, 0 on -h — and an address it cannot listen on fails with exit 1
// before any "serving on" line is printed.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-no-such-flag"}, 1, "flag provided but not defined"},
		{[]string{"-h"}, 0, "Usage of mcserved"},
		{[]string{"-addr", "127.0.0.1:99999"}, 1, "mcserved: listen tcp"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code || !strings.Contains(stderr.String(), c.stderr) || stdout.Len() != 0 {
			t.Errorf("mcserved %v: exit %d, stderr %q, stdout %q; want exit %d, stderr containing %q, empty stdout",
				c.args, code, stderr.String(), stdout.String(), c.code, c.stderr)
		}
	}
}
