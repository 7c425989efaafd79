package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"catpa"
)

// TestNewPartitionerRejectsBadDimensions: dimensions the analysis
// cannot take come back as errors, not as the engine's panics.
func TestNewPartitionerRejectsBadDimensions(t *testing.T) {
	cfg := catpa.DefaultGenConfig() // K = 4
	ts := catpa.GenerateTaskSet(&cfg, 1, 0)
	cases := []struct {
		m, k int
		fp   bool
		want string
	}{
		{0, 0, false, "-m 0"},
		{8, 1, false, "-k 1 is below the task set's criticality 4"},
		{8, 0, true, "at most 2 criticality levels, got 4"},
	}
	for _, c := range cases {
		if _, err := newPartitioner(ts, c.m, c.k, c.fp); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("newPartitioner(m=%d, k=%d, fp=%v): error %v, want %q", c.m, c.k, c.fp, err, c.want)
		}
	}
}

// TestFPRunsAMCRtb: with fp every scheme reports exactly
// catpa.FPPartition's result (what -compare prints) and keeps its
// trace; on some set the numbers differ from the EDF-VD engine's, so a
// fallback to EDF-VD would not pass unnoticed.
func TestFPRunsAMCRtb(t *testing.T) {
	cfg := catpa.DefaultGenConfig()
	cfg.M, cfg.K = 4, 2
	differs := false
	for i := 0; i < 8; i++ {
		cfg.NSU = 0.5 + 0.05*float64(i)
		ts := catpa.GenerateTaskSet(&cfg, 7, i)
		fp, err := newPartitioner(ts, 4, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		vd, _ := newPartitioner(ts, 4, 0, false)
		for _, s := range catpa.Schemes {
			r := fp.Run(ts, s, &catpa.PartitionOptions{Trace: true})
			want, _ := catpa.FPPartition(ts, 4, s)
			got, exp := fmt.Sprint(r.Feasible, r.Usys, r.Uavg, r.Imbalance, r.Assignment),
				fmt.Sprint(want.Feasible, want.Usys, want.Uavg, want.Imbalance, want.Assignment)
			if got != exp || len(r.Trace) == 0 {
				t.Fatalf("nsu %.2f %v: fp run %s (%d trace steps), FPPartition %s", cfg.NSU, s, got, len(r.Trace), exp)
			}
			e := vd.Run(ts, s, nil)
			differs = differs || fmt.Sprint(e.Feasible, e.Usys, e.Uavg) != fmt.Sprint(r.Feasible, r.Usys, r.Uavg)
		}
	}
	if !differs {
		t.Fatal("fp matched EDF-VD on every set; the test cannot tell the backends apart")
	}
}

// TestAlphaRange: -alpha accepts (0, +Inf] and rejects 0, negative
// values and NaN with exit 1 and a one-line message naming the range.
// (0 would silently select the 0.7 default, a negative threshold would
// take the fallback at every step and NaN at none.)
func TestAlphaRange(t *testing.T) {
	cfg := catpa.DefaultGenConfig()
	cfg.NSU = 0.4
	set, err := json.Marshal(catpa.GenerateTaskSet(&cfg, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"0", "-0.5", "NaN"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-alpha", a}, bytes.NewReader(set), &stdout, &stderr)
		want := "catpa: -alpha " + a + ": the imbalance threshold must be in (0, +Inf]\n"
		if code != 1 || stderr.String() != want || stdout.Len() != 0 {
			t.Errorf("-alpha %s: exit %d, stderr %q, stdout %q; want exit 1, stderr %q",
				a, code, stderr.String(), stdout.String(), want)
		}
	}
	for _, a := range []string{"0.3", "+Inf"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-alpha", a}, bytes.NewReader(set), &stdout, &stderr); code != 0 || stderr.Len() != 0 {
			t.Errorf("-alpha %s: exit %d, stderr %q; want a clean run", a, code, stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, nil, &stdout, &stderr); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if code := run([]string{"-nosuchflag"}, nil, &stdout, &stderr); code != 1 {
		t.Errorf("bad flag: exit %d, want 1", code)
	}
}
