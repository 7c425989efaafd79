package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"catpa"
)

// TestStdoutSetMatchesGenerator: the JSON mcgen prints for fixed flags
// decodes to a set bitwise equal to catpa.GenerateTaskSet with the same
// configuration, seed and index 0.
func TestStdoutSetMatchesGenerator(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-m", "4", "-k", "3", "-n", "10:30", "-nsu", "0.55", "-ifc", "0.3:0.5", "-seed", "9"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	var got catpa.TaskSet
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("output does not decode: %v", err)
	}

	cfg := catpa.DefaultGenConfig()
	cfg.M, cfg.K, cfg.NSU = 4, 3, 0.55
	cfg.N = catpa.IntRange{Lo: 10, Hi: 30}
	cfg.IFC = catpa.Range{Lo: 0.3, Hi: 0.5}
	want := catpa.GenerateTaskSet(&cfg, 9, 0)

	// Every WCET and period is positive and finite, so == on each field
	// (what DeepEqual applies to floats) is bitwise equality.
	if !reflect.DeepEqual(got.Tasks, want.Tasks) {
		t.Fatalf("decoded set differs from the generator's:\n got %+v\nwant %+v", got.Tasks, want.Tasks)
	}
}

// TestBadFlagsExit1: input mcgen cannot honour exits 1 with a one-line
// error and writes no set.
func TestBadFlagsExit1(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-count", "2"}, "mcgen: use -o for multiple sets\n"},
		{[]string{"-count", "0"}, "mcgen: -count must be at least 1, got 0\n"},
		{[]string{"-count", "-3", "-o", "sets"}, "mcgen: -count must be at least 1, got -3\n"},
		{[]string{"-n", "40:200abc"}, "mcgen: invalid range \"40:200abc\" (want lo:hi)\n"},
		{[]string{"-n", "40"}, "mcgen: invalid range \"40\" (want lo:hi)\n"},
		{[]string{"-ifc", "0.4:0.4x"}, "mcgen: invalid range \"0.4:0.4x\" (want lo:hi)\n"},
		{[]string{"-ifc", "0.4:NaN"}, "mcgen: invalid range \"0.4:NaN\" (want lo:hi)\n"},
		{[]string{"-nsu", "NaN", "-n", "3:3"}, "mcgen: taskgen: NSU=NaN is not finite\n"},
		{[]string{"-nsu", "+Inf"}, "mcgen: taskgen: NSU=+Inf is not finite\n"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != 1 || stderr.String() != c.want || stdout.Len() != 0 {
			t.Errorf("mcgen %v: exit %d, stderr %q, stdout %d bytes; want exit 1, stderr %q",
				c.args, code, stderr.String(), stdout.Len(), c.want)
		}
	}
}
