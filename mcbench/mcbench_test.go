package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"catpa/internal/serve"
)

// benchmarkFile is the part of BENCHMARK.json the names must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func TestNamesValidUniqueAndDeclared(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !validName(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w)
	}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			check("metric", s.Name)
			if s.Unit == "" || strings.Trim(s.Unit, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") != "" {
				t.Errorf("metric %s: bad unit %q", s.Name, s.Unit)
			}
		}
	}
	for _, bad := range []string{"", "-lead", "has space", "a/b", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}

	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	for _, c := range []struct {
		kind       string
		file, prog []metricSpec
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", c.kind, len(c.file), len(c.prog))
			continue
		}
		for i := range c.file {
			if c.file[i] != c.prog[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.kind, i, c.file[i], c.prog[i])
			}
		}
	}
}

// TestDueTimeLatency: latencies run from each request's due time, so a
// dispatcher stall is charged to every request it delayed, and failed
// or late answers miss every latency limit.
func TestDueTimeLatency(t *testing.T) {
	const n = 100
	interval := time.Millisecond
	out := make([]outcome, n)
	resps := make([]*serve.Response, n)
	for i := range out {
		sent := time.Duration(i) * interval
		if i >= 10 && i < 60 {
			sent = 60 * time.Millisecond // the dispatcher stalled for 50 ms
		}
		out[i] = outcome{sent: sent, done: sent + 500*time.Microsecond, status: http.StatusOK}
		resps[i] = &serve.Response{Verdict: serve.VerdictAdmitted}
	}
	out[90].status = http.StatusTooManyRequests
	resps[90] = &serve.Response{Verdict: serve.VerdictUncertain}
	out[91].done = out[91].sent + clientTimeout + time.Millisecond // answered after the client gave up

	s := summarize(out, resps, interval)
	if s.maxLate != 50*time.Millisecond {
		t.Errorf("maxLate = %v, want 50ms", s.maxLate)
	}
	// Request 10 was due at 10 ms and answered at 60.5 ms.
	if got := s.latencies[len(s.latencies)-3]; got != 50500*time.Microsecond {
		t.Errorf("worst answered latency = %v, want 50.5ms (the stall counts)", got)
	}
	// Timed from the send, every answered request took 0.5 ms; from the
	// due time, the stalled half waited up to 50 ms.
	if p90 := percentile(s.latencies, 90); p90 != 42500*time.Microsecond {
		t.Errorf("p90 = %v, want 42.5ms: the stalled requests must carry their wait", p90)
	}
	if p99 := percentile(s.latencies, 99); p99 != failedLatency {
		t.Errorf("p99 = %v, want the failed-request latency %v", p99, failedLatency)
	}
	if s.shed != 1 || s.unanswered != 1 || s.goodput != n-2 {
		t.Errorf("shed %d, unanswered %d, goodput %d; want 1, 1, %d", s.shed, s.unanswered, s.goodput, n-2)
	}
	if s.span != n*interval {
		t.Errorf("span = %v, want %v", s.span, n*interval)
	}
}

// TestCheckCatchesCorruptVerdict: a daemon answer passes the reference
// check, and every single-field corruption of it fails.
func TestCheckCatchesCorruptVerdict(t *testing.T) {
	j := &serveJob{seed: 7, corpus: 8}
	if err := j.setup(); err != nil {
		t.Fatal(err)
	}
	defer j.close()
	var admitted *serve.Response
	var k int
	for k = range j.items {
		status, body := post(j.srv, j.items[k].body)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		var r serve.Response
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if err := checkVerdict(j.reference(k), &r); err != nil {
			t.Fatalf("genuine answer for set %d fails the check: %v", k, err)
		}
		if r.Admitted {
			admitted = &r
			break
		}
	}
	if admitted == nil {
		t.Fatal("no corpus set was admitted")
	}
	corruptions := map[string]func(r *serve.Response){
		"verdict": func(r *serve.Response) { r.Verdict = serve.VerdictRejected },
		"admitted": func(r *serve.Response) {
			r.Verdicts[len(r.Verdicts)-1].Admitted = !r.Verdicts[len(r.Verdicts)-1].Admitted
		},
		"usys": func(r *serve.Response) {
			r.Verdicts[firstAdmit(r)].Usys = math.Nextafter(r.Verdicts[firstAdmit(r)].Usys, 2)
		},
		"assignment": func(r *serve.Response) { a := r.Verdicts[firstAdmit(r)].Assignment; a[0] = (a[0] + 1) % serveM },
		"dropped":    func(r *serve.Response) { r.Verdicts = r.Verdicts[:len(r.Verdicts)-1] },
		"hash":       func(r *serve.Response) { r.TaskSetHash = "0000000000000000" },
		"degraded":   func(r *serve.Response) { r.Degraded, r.Verdict, r.Admitted = true, serve.VerdictRejected, false },
	}
	for name, corrupt := range corruptions {
		r := deepCopy(t, admitted)
		corrupt(r)
		if err := checkVerdict(j.reference(k), r); err == nil {
			t.Errorf("%s corruption passed the check", name)
		}
	}
}

func firstAdmit(r *serve.Response) int {
	for i, v := range r.Verdicts {
		if v.Admitted {
			return i
		}
	}
	return 0
}

func deepCopy(t *testing.T, r *serve.Response) *serve.Response {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var c serve.Response
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks the result line against the declared metrics.
func TestSmoke(t *testing.T) {
	for _, c := range []struct {
		workload string
		trace    bool
	}{{wlSweep, false}, {wlOnline, true}, {wlServe, false}, {wlServe, true}} {
		cfg := defaultConfig()
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace = c.workload, 3, 1, c.trace
		cfg.outDir, cfg.corpus, cfg.setupReps = t.TempDir(), 64, 1
		var log bytes.Buffer
		res, err := execute(cfg, &log)
		if err != nil {
			t.Fatalf("%s trace=%v: %v\n%s", c.workload, c.trace, err, log.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", c.workload, c.trace, res.Correct, res.Attempted, res.Failed, log.String())
		}
		specs := endToEnd
		if c.trace {
			specs = perLayer
			for _, suffix := range []string{".cpu.pprof", ".trace.json"} {
				if _, err := os.Stat(filepath.Join(cfg.outDir, c.workload+"-seed3"+suffix)); err != nil {
					t.Errorf("%s: traced run wrote no %s: %v", c.workload, suffix, err)
				}
			}
		}
		if len(res.Metrics) != len(specs) {
			t.Errorf("%s trace=%v: %d metrics, want %d", c.workload, c.trace, len(res.Metrics), len(specs))
		}
		for _, s := range specs {
			v, ok := res.Metrics[s.Name]
			if !ok || v.Unit != s.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s trace=%v: metric %s = %+v", c.workload, c.trace, s.Name, v)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", wlSweep, "--seconds", "0"},
		{"--workload", wlSweep, "--trace", "2"},
		{"--workload", wlSweep, "stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() > 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and no result", args, code, stdout.String())
		}
	}
}
