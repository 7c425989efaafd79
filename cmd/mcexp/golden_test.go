package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"catpa/internal/obs"
)

// update regenerates the golden files from the current output:
//
//	go test ./cmd/mcexp -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenArgs pins every determinism knob: seed and set count fix the
// task-set population, and the worker count fixes the striping (the
// mean metrics are bit-exact only for a fixed worker count).
func goldenArgs(figure, sets, outDir, metricsPath string) []string {
	return []string{
		"-figure", figure, "-sets", sets, "-seed", "2016", "-workers", "2",
		"-csv", "-out", outDir, "-metrics", metricsPath,
	}
}

// TestGoldenFigure1 locks the end-to-end CLI output byte-for-byte: a
// small fixed-seed figure-1 run must reproduce the checked-in CSVs and
// (timing-redacted) metrics snapshot exactly. Any drift in the
// generator, the analysis, the partitioning heuristics, the CSV
// renderer or the metrics plumbing fails this test; run with -update
// to accept an intentional change.
func TestGoldenFigure1(t *testing.T) {
	goldenFigure(t, "fig1", "1", "200")
}

// TestGoldenFigure6 locks the backend-comparison figure the same way:
// CA-TPA, FFD and Hybrid each run atop both the EDF-VD and AMC-rtb
// analysis backends, so this golden additionally pins the AMC-rtb
// response-time analysis and the variant plumbing end to end.
func TestGoldenFigure6(t *testing.T) {
	goldenFigure(t, "fig6", "6", "120")
}

// TestGoldenFigure5 locks the varying-K figure the same way. It is the
// only sweep that runs K = 3, 5 and 6, so it pins the generic Theorem-1
// recursion to the bit at every dimension the other goldens never
// reach.
func TestGoldenFigure5(t *testing.T) {
	goldenFigure(t, "fig5", "5", "60")
}

// TestGoldenOnline locks the online pipeline the same way: the Poisson
// arrival stream generation, the incremental Admit/Release replay, the
// time-bucketed aggregation and the online chart rendering must
// reproduce the checked-in admission-rate and utilization-over-time
// curves byte for byte at a fixed seed and worker count.
func TestGoldenOnline(t *testing.T) {
	outDir := t.TempDir()
	metricsPath := filepath.Join(outDir, "metrics.json")
	args := []string{
		"-online", "-sets", "60", "-seed", "2016", "-workers", "2",
		"-csv", "-out", outDir, "-metrics", metricsPath,
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr, nil); code != exitOK {
		t.Fatalf("run exited %d\nstderr:\n%s", code, stderr.String())
	}
	goldenOutputs(t, "onl1", outDir, metricsPath, []string{
		"a-admission-rate.csv",
		"b-shed-rate.csv",
		"c-occupancy.csv",
		"d-util-over-time.csv",
	})
}

func goldenFigure(t *testing.T, name, figure, sets string) {
	t.Helper()
	outDir := t.TempDir()
	metricsPath := filepath.Join(outDir, "metrics.json")
	var stdout, stderr bytes.Buffer
	if code := run(goldenArgs(figure, sets, outDir, metricsPath), &stdout, &stderr, nil); code != exitOK {
		t.Fatalf("run exited %d\nstderr:\n%s", code, stderr.String())
	}
	goldenOutputs(t, name, outDir, metricsPath, []string{
		"a-sched-ratio.csv",
		"b-usys.csv",
		"c-uavg.csv",
		"d-imbalance.csv",
	})
}

// goldenOutputs byte-compares the figure's CSVs and timing-redacted
// metrics snapshot against testdata/.
func goldenOutputs(t *testing.T, name, outDir, metricsPath string, suffixes []string) {
	t.Helper()
	for _, suffix := range suffixes {
		csv := name + "-" + suffix
		got, err := os.ReadFile(filepath.Join(outDir, csv))
		if err != nil {
			t.Fatalf("CLI wrote no %s: %v", csv, err)
		}
		compareGolden(t, csv, got)
	}

	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("CLI wrote no metrics snapshot: %v", err)
	}
	compareGolden(t, name+"-metrics.json", redactTimings(t, raw))
}

// redactTimings zeroes the nondeterministic parts of a metrics
// snapshot — per-bucket histogram counts, duration sums and maxima
// depend on machine speed — while keeping everything provably
// deterministic: all counters, the gauges, the bucket bounds and each
// histogram's total observation count (one observation per set and
// stage, regardless of timing).
func redactTimings(t *testing.T, raw []byte) []byte {
	t.Helper()
	var snaps map[string]*obs.Snapshot
	if err := json.Unmarshal(raw, &snaps); err != nil {
		t.Fatalf("metrics snapshot does not parse: %v", err)
	}
	for _, s := range snaps {
		for name, h := range s.Histograms {
			for i := range h.Counts {
				h.Counts[i] = 0
			}
			h.SumNS = 0
			h.MaxNS = 0
			s.Histograms[name] = h
		}
	}
	out, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// compareGolden byte-compares got against testdata/<name>, rewriting
// the golden under -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create it): %v", golden, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden (rerun with -update if intentional)\n got:\n%s\nwant:\n%s",
			name, clip(got), clip(want))
	}
}

// clip bounds a diff dump to its first lines.
func clip(b []byte) string {
	lines := strings.SplitN(string(b), "\n", 12)
	if len(lines) == 12 {
		lines[11] = fmt.Sprintf("... (%d bytes total)", len(b))
	}
	return strings.Join(lines, "\n")
}
