package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"catpa/internal/experiments"
	"catpa/internal/partition"
	"catpa/internal/runner/faultinject"
	"catpa/internal/taskgen"
)

// testSweep returns a small deterministic three-point sweep. Worker
// count is pinned: the mean metrics are bit-exact only for a fixed
// striping, and the byte-identical-resume tests depend on that.
func testSweep() *experiments.Sweep {
	return &experiments.Sweep{
		Name:   "testsweep",
		Title:  "runner test sweep",
		Param:  "NSU",
		Values: []float64{0.45, 0.6, 0.75},
		Apply: func(p *experiments.Params, x float64) {
			p.M = 4
			p.K = 3
			p.N = taskgen.IntRange{Lo: 20, Hi: 40}
			p.NSU = x
		},
		Sets:    60,
		Seed:    9,
		Workers: 2,
	}
}

// goldenRun executes the sweep uninterrupted, without checkpointing or
// injection — the reference every fault scenario must reproduce.
func goldenRun(t *testing.T) *Report {
	t.Helper()
	rep, err := Run(context.Background(), testSweep(), nil)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	if !rep.Complete() {
		t.Fatal("golden run incomplete")
	}
	return rep
}

// allCSV renders every chart of a result as one byte string.
func allCSV(res *experiments.Result) string {
	var b strings.Builder
	for _, ch := range res.Charts() {
		b.WriteString(ch.CSV())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestResumeByteIdenticalAfterInterrupt(t *testing.T) {
	golden := goldenRun(t)
	ckpt := filepath.Join(t.TempDir(), "testsweep.ckpt")

	// Interrupt at the first point boundary: cancel fires after point 0
	// has been journaled, so the per-point loop stops before point 1.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep1, err := Run(ctx, testSweep(), &Options{
		CheckpointPath: ckpt,
		OnPoint: func(pi int, _ *experiments.Point) {
			if pi == 0 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if !rep1.Interrupted {
		t.Error("interrupted run: Interrupted not set")
	}
	if got := rep1.Completed(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("interrupted run completed %v, want [0]", got)
	}
	// The partial result renders only the completed point.
	partial := rep1.PartialResult()
	if len(partial.Points) != 1 || len(partial.Sweep.Values) != 1 {
		t.Fatalf("partial result has %d points / %d values, want 1/1", len(partial.Points), len(partial.Sweep.Values))
	}

	// Resume: point 0 loads from the journal, 1 and 2 compute fresh.
	rep2, err := Run(context.Background(), testSweep(), &Options{CheckpointPath: ckpt})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := rep2.Resumed; !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("resumed points %v, want [0]", got)
	}
	if !rep2.Complete() {
		t.Fatal("resumed run incomplete")
	}
	if got, want := allCSV(rep2.Result), allCSV(golden.Result); got != want {
		t.Errorf("resumed CSVs differ from uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
	if !reflect.DeepEqual(rep2.Result.Points, golden.Result.Points) {
		t.Error("resumed points differ bitwise from uninterrupted run")
	}
}

// TestQuarantineExactCounts: a panic on one task set must not take the
// sweep down, must be reported with its exact reproduction triple, and
// must change the counts in exactly one way — that set becomes
// unschedulable for every scheme. Every other cell stays bit-identical.
func TestQuarantineExactCounts(t *testing.T) {
	golden := goldenRun(t)
	sw := testSweep()
	hook := faultinject.New().PanicAt(1, 7, "boom on set 7")
	rep, err := Run(context.Background(), sw, &Options{Hook: hook})
	if err != nil {
		t.Fatalf("run with injected panic: %v", err)
	}
	if !rep.Complete() {
		t.Fatal("sweep did not complete despite quarantine")
	}
	if hook.Fired(1, 7) != 1 {
		t.Fatalf("fault fired %d times, want 1", hook.Fired(1, 7))
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined = %v, want exactly one entry", rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Point != 1 || q.Set != 7 || q.Seed != sw.Seed {
		t.Errorf("reproduction triple (seed=%d point=%d set=%d), want (seed=%d point=1 set=7)", q.Seed, q.Point, q.Set, sw.Seed)
	}
	if !strings.Contains(q.Err, "boom on set 7") {
		t.Errorf("quarantine error %q does not carry the panic message", q.Err)
	}

	// Untouched points are bit-identical.
	for _, pi := range []int{0, 2} {
		if !reflect.DeepEqual(rep.Result.Points[pi], golden.Result.Points[pi]) {
			t.Errorf("point %d changed under an injected panic at point 1", pi)
		}
	}

	// The affected point: totals exact, and hits drop by exactly the
	// golden feasibility of the quarantined set per scheme. Recompute
	// that feasibility independently on a fresh Partitioner.
	cfg := taskgen.DefaultConfig()
	cfg.M = 4
	cfg.K = 3
	cfg.NSU = sw.Values[1]
	cfg.N = taskgen.IntRange{Lo: 20, Hi: 40}
	ts := taskgen.GenerateIndexed(&cfg, sw.Seed, 7)
	opts := partition.Options{Alpha: partition.DefaultAlpha}
	for si, scheme := range partition.Schemes {
		cell := rep.Result.Points[1].Cells[si]
		gold := golden.Result.Points[1].Cells[si]
		if cell.Sched.N() != int64(sw.Sets) {
			t.Errorf("%v: total %d, want %d", scheme, cell.Sched.N(), sw.Sets)
		}
		delta := int64(0)
		if partition.New(4, 3).Run(ts, scheme, &opts).Feasible {
			delta = 1
		}
		if got, want := cell.Sched.Hits(), gold.Sched.Hits()-delta; got != want {
			t.Errorf("%v: hits %d, want %d (golden %d minus set-7 feasibility %d)", scheme, got, want, gold.Sched.Hits(), delta)
		}
		if cell.Usys.N() != cell.Sched.Hits() {
			t.Errorf("%v: mean accumulator n=%d inconsistent with hits=%d", scheme, cell.Usys.N(), cell.Sched.Hits())
		}
	}
}

// TestQuarantineSurvivesResume: quarantine records of checkpointed
// points must still be reported after a resume.
func TestQuarantineSurvivesResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "testsweep.ckpt")
	hook := faultinject.New().PanicAt(0, 3, "early boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Run(ctx, testSweep(), &Options{
		CheckpointPath: ckpt,
		Hook:           hook,
		OnPoint: func(pi int, _ *experiments.Point) {
			if pi == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	rep, err := Run(context.Background(), testSweep(), &Options{CheckpointPath: ckpt})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := rep.Resumed; !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("resumed %v, want [0 1]", got)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined after resume = %v, want the journaled entry", rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Point != 0 || q.Set != 3 || !strings.Contains(q.Err, "early boom") {
		t.Errorf("journaled quarantine lost fidelity: %+v", q)
	}

	// And the full-with-hook uninterrupted run agrees bit for bit.
	want, err := Run(context.Background(), testSweep(), &Options{Hook: faultinject.New().PanicAt(0, 3, "early boom")})
	if err != nil {
		t.Fatal(err)
	}
	if got, wantCSV := allCSV(rep.Result), allCSV(want.Result); got != wantCSV {
		t.Error("resumed-with-quarantine CSVs differ from uninterrupted run")
	}
}

// TestFaultInjectStallInvariant: artificial worker stalls delay the
// sweep but must not move a single bit of the results.
func TestFaultInjectStallInvariant(t *testing.T) {
	golden := goldenRun(t)
	hook := faultinject.New().
		StallAt(0, 5, 2*time.Millisecond).
		StallAt(1, 0, 2*time.Millisecond).
		StallAt(2, 11, 2*time.Millisecond)
	rep, err := Run(context.Background(), testSweep(), &Options{Hook: hook})
	if err != nil {
		t.Fatalf("stalled run: %v", err)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("stalls must not quarantine, got %v", rep.Quarantined)
	}
	if hook.Fired(0, 5) != 1 || hook.Fired(1, 0) != 1 || hook.Fired(2, 11) != 1 {
		t.Error("not every scripted stall fired")
	}
	if !reflect.DeepEqual(rep.Result.Points, golden.Result.Points) {
		t.Error("stalls changed the results")
	}
}

// TestFaultInjectTornTailResume: a crash that tears the final journal
// line (header and earlier points intact) must resume by dropping the
// torn line and recomputing only that point — output byte-identical.
func TestFaultInjectTornTailResume(t *testing.T) {
	golden := goldenRun(t)
	ckpt := filepath.Join(t.TempDir(), "testsweep.ckpt")
	atomic := func(p string, d []byte) error { return WriteFileAtomic(p, d, 0o644) }

	// Flush 1 (point 0) lands atomically; flush 2 (point 1) tears 10
	// bytes off the end, leaving header + point 0 + a torn point-1 line.
	_, err := Run(context.Background(), testSweep(), &Options{
		CheckpointPath: ckpt,
		WriteFile:      faultinject.TornWriter(atomic, 2, -10),
	})
	if !errors.Is(err, faultinject.ErrTorn) {
		t.Fatalf("torn run: err = %v, want ErrTorn", err)
	}

	rep, err := Run(context.Background(), testSweep(), &Options{CheckpointPath: ckpt})
	if err != nil {
		t.Fatalf("resume after torn write: %v", err)
	}
	if got := rep.Resumed; !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("resumed %v, want [0] (torn point 1 must recompute)", got)
	}
	if rep.DroppedLines != 1 {
		t.Errorf("dropped lines = %d, want 1", rep.DroppedLines)
	}
	if got, want := allCSV(rep.Result), allCSV(golden.Result); got != want {
		t.Error("post-torn-tail resume differs from uninterrupted run")
	}
}

// TestFaultInjectTornHeaderResume: a crash that destroys even the
// header must degrade to a fresh run — everything recomputes, output
// still byte-identical.
func TestFaultInjectTornHeaderResume(t *testing.T) {
	golden := goldenRun(t)
	ckpt := filepath.Join(t.TempDir(), "testsweep.ckpt")
	atomic := func(p string, d []byte) error { return WriteFileAtomic(p, d, 0o644) }

	_, err := Run(context.Background(), testSweep(), &Options{
		CheckpointPath: ckpt,
		WriteFile:      faultinject.TornWriter(atomic, 1, 25),
	})
	if !errors.Is(err, faultinject.ErrTorn) {
		t.Fatalf("torn run: err = %v, want ErrTorn", err)
	}

	rep, err := Run(context.Background(), testSweep(), &Options{CheckpointPath: ckpt})
	if err != nil {
		t.Fatalf("resume after torn header: %v", err)
	}
	if len(rep.Resumed) != 0 {
		t.Fatalf("resumed %v from a torn header, want none", rep.Resumed)
	}
	if !rep.Complete() {
		t.Fatal("fresh-start resume incomplete")
	}
	if got, want := allCSV(rep.Result), allCSV(golden.Result); got != want {
		t.Error("post-torn-header rerun differs from uninterrupted run")
	}
}

// TestResumeRejectsForeignCheckpoint: a journal from a different run
// identity must refuse to resume instead of mixing aggregates.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "testsweep.ckpt")
	if _, err := Run(context.Background(), testSweep(), &Options{CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}

	other := testSweep()
	other.Seed = 10
	if _, err := Run(context.Background(), other, &Options{CheckpointPath: ckpt}); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("foreign-seed resume: err = %v, want seed-mismatch refusal", err)
	}

	mismatchedWorkers := testSweep()
	mismatchedWorkers.Workers = 1
	if _, err := Run(context.Background(), mismatchedWorkers, &Options{CheckpointPath: ckpt}); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Errorf("worker-count-mismatch resume: err = %v, want refusal", err)
	}
}

// TestAtomicWriteKilledMidFlight: the old file must survive a writer
// that dies after writing the temp file but before the rename — the
// satellite guarantee behind every CSV and checkpoint emission.
func TestAtomicWriteKilledMidFlight(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig1-a-sched-ratio.csv")
	old := []byte("NSU,WFD\n0.4,0.9\n")
	if err := WriteFileAtomic(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	killed := errors.New("simulated kill -9 mid-write")
	err := writeFileAtomic(path, []byte("NSU,WFD\n0.4,0.1\ntruncated..."), 0o644, func(string) error {
		return killed
	})
	if !errors.Is(err, killed) {
		t.Fatalf("err = %v, want the simulated kill", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(old) {
		t.Errorf("old file corrupted by killed writer:\n got %q\nwant %q", got, old)
	}
	// No temp litter from the aborted attempt.
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}

	// And the writer still works after the "restart".
	fresh := []byte("NSU,WFD\n0.4,0.8\n")
	if err := WriteFileAtomic(path, fresh, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != string(fresh) {
		t.Errorf("post-restart write failed: %q", got)
	}
}
