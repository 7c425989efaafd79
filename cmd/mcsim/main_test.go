package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"catpa"
)

// setJSON returns a generated K = 4 task set as mcgen would print it.
func setJSON(t *testing.T, nsu float64) []byte {
	t.Helper()
	cfg := catpa.DefaultGenConfig() // K = 4, M = 8
	cfg.NSU = nsu
	data, err := json.Marshal(catpa.GenerateTaskSet(&cfg, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBadDimensionsExitWithOneLine: a core or level count the
// partitioner cannot take is reported in one line with exit 1, not as
// the engine's panic.
func TestBadDimensionsExitWithOneLine(t *testing.T) {
	set := setJSON(t, 0.4)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-m", "2", "-k", "2"}, "mcsim: -k 2 is below the task set's criticality 4\n"},
		{[]string{"-m", "0"}, "mcsim: -m 0: need at least one core\n"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run(c.args, bytes.NewReader(set), &stdout, &stderr)
		if code != 1 || stderr.String() != c.want || stdout.Len() != 0 {
			t.Errorf("mcsim %v: exit %d, stderr %q, stdout %q; want exit 1, stderr %q",
				c.args, code, stderr.String(), stdout.String(), c.want)
		}
	}
}

// TestWorstCaseRunHasNoMisses: a feasible CA-TPA partition survives the
// adversarial worst-case model with no deadline miss.
func TestWorstCaseRunHasNoMisses(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-m", "8", "-model", "worst"}, bytes.NewReader(setJSON(t, 0.4)), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "no deadline misses") || strings.Count(out, "missed=0 ") != 8 {
		t.Fatalf("want 8 cores with missed=0 and no misses reported:\n%s", out)
	}
}
