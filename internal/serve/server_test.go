package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"catpa/internal/mc"
	"catpa/internal/obs"
	"catpa/internal/partition"
	"catpa/internal/taskgen"
)

// genSet generates a deterministic workload shaped for m cores and k
// levels.
func genSet(tb testing.TB, m, k, n int, nsu float64, seed int64) *mc.TaskSet {
	tb.Helper()
	cfg := taskgen.DefaultConfig()
	cfg.M, cfg.K, cfg.NSU = m, k, nsu
	cfg.N = taskgen.IntRange{Lo: n, Hi: n}
	return taskgen.GenerateIndexed(&cfg, seed, 0)
}

// feasibleSet is comfortably schedulable on 4 cores.
func feasibleSet(tb testing.TB) *mc.TaskSet { return genSet(tb, 4, 2, 24, 0.5, 11) }

// overloadedSet carries ~3.4 cores of level-1 utilization, so any
// admission question with m <= 3 is a certified reject.
func overloadedSet(tb testing.TB) *mc.TaskSet { return genSet(tb, 4, 2, 24, 0.85, 7) }

func newTestServer(tb testing.TB, cfg Config) (*Server, *httptest.Server) {
	tb.Helper()
	s := NewServer(cfg)
	hs := httptest.NewServer(s)
	tb.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			tb.Errorf("Shutdown: %v", err)
		}
	})
	return s, hs
}

func postAdmit(tb testing.TB, client *http.Client, url string, req *Request) (int, *Response) {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatalf("marshal request: %v", err)
	}
	return postRaw(tb, client, url, body)
}

func postRaw(tb testing.TB, client *http.Client, url string, body []byte) (int, *Response) {
	tb.Helper()
	hr, err := client.Post(url+"/v1/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatalf("POST /v1/admit: %v", err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		tb.Fatalf("decode response: %v", err)
	}
	return hr.StatusCode, &resp
}

func getStatus(tb testing.TB, client *http.Client, url string) int {
	tb.Helper()
	hr, err := client.Get(url)
	if err != nil {
		tb.Fatalf("GET %s: %v", url, err)
	}
	hr.Body.Close()
	return hr.StatusCode
}

// directResponse is the complete verdict a direct Partitioner.Run of
// every scheme gives: the answer the daemon must return field for
// field, hash and tag aside.
func directResponse(tb testing.TB, ts *mc.TaskSet, m, k int, backend string, schemes []string) *Response {
	tb.Helper()
	be, err := partition.NewBackend(backend)
	if err != nil {
		tb.Fatal(err)
	}
	p := partition.NewWithBackend(m, k, be)
	resp := &Response{Verdict: VerdictRejected}
	for _, name := range schemes {
		scheme, err := partition.ParseScheme(name)
		if err != nil {
			tb.Fatal(err)
		}
		res := p.Run(ts, scheme, nil)
		v := Verdict{Scheme: name, Admitted: res.Feasible}
		if res.Feasible {
			v.Usys, v.Uavg, v.Imbalance = res.Usys, res.Uavg, res.Imbalance
			if !resp.Admitted {
				resp.Admitted, resp.Verdict = true, VerdictAdmitted
				v.Assignment = slices.Clone(res.Assignment)
			}
		}
		resp.Verdicts = append(resp.Verdicts, v)
	}
	if !resp.Admitted {
		resp.Reason = fmt.Sprintf("no scheme of [%s] admits the set on m=%d cores under %s", strings.Join(schemes, ","), m, backend)
	}
	return resp
}

// TestAdmitMatchesDirectEvaluation: on both backends, every complete
// verdict equals the direct analysis of all five schemes, whether the
// worker ran the analysis or the utilization screen certified the
// reject first.
func TestAdmitMatchesDirectEvaluation(t *testing.T) {
	reg := obs.NewRegistry()
	s, hs := newTestServer(t, Config{Metrics: reg})
	names := make([]string, len(partition.Schemes))
	for i, scheme := range partition.Schemes {
		names[i] = scheme.String()
	}
	sets := []struct {
		name string
		ts   *mc.TaskSet
		m    int
	}{
		{"feasible", feasibleSet(t), 4},
		{"overloaded on 4", overloadedSet(t), 4},
		{"overloaded on 3", overloadedSet(t), 3},
		{"overloaded on 2", overloadedSet(t), 2},
		{"band", bandSet(4, 2, 50.00000003), 2},
	}
	for _, backend := range partition.BackendNames() {
		screened := 0
		for _, tc := range sets {
			tag := backend + " " + tc.name
			before := s.met.screened.Value()
			status, resp := postAdmit(t, hs.Client(), hs.URL, &Request{
				TaskSet: tc.ts, M: tc.m, K: 2, Schemes: names, Backend: backend, Tag: tag,
			})
			if status != http.StatusOK {
				t.Fatalf("%s: status = %d, want 200 (error %q)", tag, status, resp.Error)
			}
			if resp.Tag != tag || resp.Partial || resp.Degraded || resp.Cached {
				t.Errorf("%s: unexpected flags in %+v", tag, resp)
			}
			if resp.TaskSetHash != fmt.Sprintf("%016x", mc.TaskSetHash(tc.ts)) {
				t.Errorf("%s: TaskSetHash = %q", tag, resp.TaskSetHash)
			}
			want := directResponse(t, tc.ts, tc.m, 2, backend, names)
			if resp.Admitted != want.Admitted || resp.Verdict != want.Verdict || resp.Reason != want.Reason ||
				!reflect.DeepEqual(resp.Verdicts, want.Verdicts) {
				t.Errorf("%s: daemon answered %+v\ndirect analysis %+v", tag, resp, want)
			}
			moved := s.met.screened.Value() - before
			if v, _ := Screen(tc.ts, tc.m, 2); (v == ScreenReject) != (moved == 1) || moved > 1 {
				t.Errorf("%s: screen %v, serve.requests.screened moved by %d", tag, v, moved)
			}
			screened += int(moved)
		}
		if screened == 0 || screened == len(sets) {
			t.Errorf("%s: %d of %d sets screened; the test must cover both paths", backend, screened, len(sets))
		}
	}
}

func TestAdmitRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	status, resp := postAdmit(t, hs.Client(), hs.URL, &Request{
		TaskSet: overloadedSet(t), M: 2,
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d (error %q)", status, resp.Error)
	}
	if resp.Admitted || resp.Verdict != VerdictRejected {
		t.Errorf("verdict = %+v, want rejected", resp)
	}
	if resp.Reason == "" {
		t.Errorf("rejected response needs a reason")
	}
}

func TestAdmitValidationErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxTasks: 30, MaxCores: 16})
	ts := feasibleSet(t)
	k4 := genSet(t, 4, 4, 24, 0.5, 3)
	cases := []struct {
		name string
		req  Request
		body string // sent verbatim instead of req when set
		want string
	}{
		{"empty set", Request{TaskSet: mc.NewTaskSet(), M: 4}, "", "at least one task"},
		{"nil set", Request{M: 4}, "", "at least one task"},
		{"too many tasks", Request{TaskSet: genSet(t, 4, 2, 31, 0.5, 5), M: 4}, "", "at most 30"},
		{"m zero", Request{TaskSet: ts, M: 0}, "", "m must be in 1..16"},
		{"m huge", Request{TaskSet: ts, M: 64}, "", "m must be in 1..16"},
		{"k below set", Request{TaskSet: ts, M: 4, K: 1}, "", "below the task set's criticality"},
		{"bad backend", Request{TaskSet: ts, M: 4, Backend: "rta++"}, "", "unknown backend"},
		{"amcrtb too many levels", Request{TaskSet: k4, M: 4, Backend: "amcrtb"}, "", "at most K=2"},
		{"bad scheme", Request{TaskSet: ts, M: 4, Schemes: []string{"ZFD"}}, "", "unknown scheme"},
		{"negative timeout", Request{TaskSet: ts, M: 4, TimeoutMS: -1}, "", "non-negative"},
		// The task set is validated once, by normalize, not while the
		// body is decoded.
		{"decreasing wcet", Request{}, `{"m":4,"task_set":{"tasks":[{"id":1,"period":10,"crit":2,"wcet":[3,2]}]}}`, "invalid task_set: task 1: WCET vector decreases"},
		{"duplicate field", Request{}, `{"m":4,"m":2}`, "bad request body: duplicate field"},
		{"trailing data", Request{}, `{"m":4} {}`, "bad request body: trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			var resp *Response
			if tc.body != "" {
				status, resp = postRaw(t, hs.Client(), hs.URL, []byte(tc.body))
			} else {
				status, resp = postAdmit(t, hs.Client(), hs.URL, &tc.req)
			}
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", status)
			}
			if !strings.Contains(resp.Error, tc.want) {
				t.Errorf("error %q does not mention %q", resp.Error, tc.want)
			}
		})
	}
}

func TestAdmitRejectsBadTransport(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxBodyBytes: 256})
	if status, resp := postRaw(t, hs.Client(), hs.URL, []byte("{not json")); status != http.StatusBadRequest {
		t.Errorf("malformed body: status %d (%+v)", status, resp)
	}
	big, err := json.Marshal(&Request{TaskSet: feasibleSet(t), M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := postRaw(t, hs.Client(), hs.URL, big); status != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", status)
	}
	hr, err := hs.Client().Get(hs.URL + "/v1/admit")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", hr.StatusCode)
	}
	if allow := hr.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q", allow)
	}
}

func TestVerdictCacheRoundTrip(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	req := &Request{TaskSet: feasibleSet(t), M: 4, Tag: "first"}
	_, cold := postAdmit(t, hs.Client(), hs.URL, req)
	if cold.Cached {
		t.Fatalf("first request served from an empty cache")
	}
	req.Tag = "second"
	_, warm := postAdmit(t, hs.Client(), hs.URL, req)
	if !warm.Cached {
		t.Fatalf("second identical request missed the cache")
	}
	if warm.Tag != "second" {
		t.Errorf("cached response echoes stale tag %q", warm.Tag)
	}
	if warm.Admitted != cold.Admitted || warm.Verdict != cold.Verdict || len(warm.Verdicts) != len(cold.Verdicts) {
		t.Errorf("cache changed the verdict: %+v vs %+v", warm, cold)
	}
	if n := s.cache.len(); n != 1 {
		t.Errorf("cache holds %d entries, want 1", n)
	}
	// A different m is a different admission question.
	req.M = 3
	if _, other := postAdmit(t, hs.Client(), hs.URL, req); other.Cached {
		t.Errorf("m=3 hit the m=4 cache entry")
	}
}

func TestCacheEviction(t *testing.T) {
	c := newVerdictCache(2)
	k := func(i int) cacheKey {
		return cacheKey{hash: uint64(i), m: 4, k: 2, backend: "edfvd", schemes: "CA-TPA"}
	}
	for i := 0; i < 3; i++ {
		c.put(k(i), &Response{Verdict: VerdictAdmitted})
	}
	if c.get(k(0)) != nil {
		t.Errorf("oldest entry survived eviction")
	}
	if c.get(k(1)) == nil || c.get(k(2)) == nil {
		t.Errorf("newest entries evicted")
	}
	c.put(k(2), &Response{Verdict: VerdictRejected})
	if got := c.get(k(2)); got == nil || got.Verdict != VerdictRejected {
		t.Errorf("overwrite lost: %+v", got)
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	var nilCache *verdictCache
	nilCache.put(k(9), &Response{})
	if nilCache.get(k(9)) != nil || nilCache.len() != 0 {
		t.Errorf("nil cache must be inert")
	}
}

// stallHooks blocks matching-tagged jobs in the worker until released,
// signalling arrival on started.
func stallHooks(tag string, started chan<- struct{}, release <-chan struct{}) *Hooks {
	return &Hooks{BeforeEvaluate: func(got string) {
		if got == tag {
			started <- struct{}{}
			<-release
		}
	}}
}

func TestQueueFullSheds429(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	s, hs := newTestServer(t, Config{
		Workers:          1,
		QueueDepth:       1,
		DegradeWatermark: -1, // isolate the shed path
		RequestTimeout:   30 * time.Second,
		RetryAfter:       7 * time.Second,
		Metrics:          obs.NewRegistry(),
		Hooks:            stallHooks("stall", started, release),
	})
	ts := feasibleSet(t)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4, Tag: "stall"})
	}()
	<-started // worker busy; queue empty

	wg.Add(1)
	go func() {
		defer wg.Done()
		postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4, Tag: "queued"})
	}()
	waitFor(t, func() bool { return len(s.jobs) == 1 })

	body, err := json.Marshal(&Request{TaskSet: ts, M: 4, Tag: "shed"})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := hs.Client().Post(hs.URL+"/v1/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", hr.StatusCode)
	}
	if ra := hr.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want 7", ra)
	}
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "queue full") {
		t.Errorf("shed error = %q", resp.Error)
	}
	release <- struct{}{} // free the stalled job; the queued one follows
	wg.Wait()
	if got := s.met.shed.Value(); got != 1 {
		t.Errorf("serve.requests.shed = %d, want 1", got)
	}
}

func TestDegradedModePastWatermark(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	s, hs := newTestServer(t, Config{
		Workers:          1,
		QueueDepth:       8,
		DegradeWatermark: 1,
		RequestTimeout:   30 * time.Second,
		Metrics:          obs.NewRegistry(),
		Hooks:            stallHooks("stall", started, release),
	})
	ts := feasibleSet(t)

	var wg sync.WaitGroup
	for _, tag := range []string{"stall", "queued"} {
		tag := tag
		wg.Add(1)
		go func() {
			defer wg.Done()
			postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4, Tag: tag})
		}()
		if tag == "stall" {
			<-started
		} else {
			waitFor(t, func() bool { return len(s.jobs) == 1 })
		}
	}

	// Queue depth is at the watermark: a schedulable set can only get
	// an honest "uncertain"...
	status, resp := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4, Tag: "deg"})
	if status != http.StatusOK {
		t.Fatalf("degraded status = %d", status)
	}
	if !resp.Degraded || resp.Verdict != VerdictUncertain || resp.Admitted {
		t.Errorf("degraded response = %+v, want uncertain + degraded", resp)
	}
	// ...while an overloaded set is still a certified reject.
	status, resp = postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: overloadedSet(t), M: 2, Tag: "deg2"})
	if status != http.StatusOK {
		t.Fatalf("degraded reject status = %d", status)
	}
	if !resp.Degraded || resp.Verdict != VerdictRejected || resp.Reason == "" {
		t.Errorf("degraded reject = %+v", resp)
	}

	// A require_full request refuses the screen tier: it queues for
	// the real analysis even past the watermark.
	var fullResp *Response
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, fullResp = postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4, RequireFull: true, Tag: "full"})
	}()
	waitFor(t, func() bool { return len(s.jobs) == 2 })

	release <- struct{}{}
	wg.Wait()
	if fullResp.Degraded || fullResp.Partial || fullResp.Error != "" {
		t.Errorf("require_full response degraded or failed: %+v", fullResp)
	}
	if got := s.met.degraded.Value(); got != 2 {
		t.Errorf("serve.requests.degraded = %d, want 2", got)
	}
	// Drained queue: full analysis resumes.
	if _, resp := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4}); resp.Degraded {
		t.Errorf("still degraded after the queue drained")
	}
}

func TestGracefulDrain(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s, hs := newTestServer(t, Config{
		Workers:        1,
		QueueDepth:     8,
		RequestTimeout: 30 * time.Second,
		Hooks:          stallHooks("stall", started, release),
	})
	ts := feasibleSet(t)

	if getStatus(t, hs.Client(), hs.URL+"/readyz") != http.StatusOK {
		t.Fatalf("not ready before drain")
	}

	var wg sync.WaitGroup
	verdicts := make([]*Response, 2)
	for i, tag := range []string{"stall", "queued"} {
		i, tag := i, tag
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, verdicts[i] = postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4, Tag: tag})
		}()
		if tag == "stall" {
			<-started
		} else {
			waitFor(t, func() bool { return len(s.jobs) == 1 })
		}
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return !s.Ready() })

	if got := getStatus(t, hs.Client(), hs.URL+"/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", got)
	}
	if got := getStatus(t, hs.Client(), hs.URL+"/healthz"); got != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", got)
	}
	if status, _ := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4}); status != http.StatusServiceUnavailable {
		t.Errorf("new admission during drain: status %d, want 503", status)
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i, v := range verdicts {
		if v == nil || v.Error != "" || v.Partial {
			t.Errorf("in-flight request %d lost in drain: %+v", i, v)
		}
	}
	// Idempotent second shutdown.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

func TestMetricz(t *testing.T) {
	_, hs := newTestServer(t, Config{Metrics: obs.NewRegistry()})
	postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: feasibleSet(t), M: 4})
	hr, err := hs.Client().Get(hs.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/metricz status = %d", hr.StatusCode)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&snap); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	if snap.Counters["serve.requests.total"] < 1 {
		t.Errorf("serve.requests.total = %d, want >= 1", snap.Counters["serve.requests.total"])
	}
}

// TestStageHistograms: a cache miss moves each serve stage histogram
// exactly once, a cache hit only decode, cache and encode, and the
// stages before encode fit inside the request's own latency.
func TestStageHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	s, hs := newTestServer(t, Config{Metrics: reg})
	req := &Request{TaskSet: feasibleSet(t), M: 4}
	stages := []string{"decode", "cache", "queue_wait", "analyze", "encode"}
	for _, want := range []map[string]int64{
		{"decode": 1, "cache": 1, "queue_wait": 1, "analyze": 1, "encode": 1},
		{"decode": 2, "cache": 2, "queue_wait": 1, "analyze": 1, "encode": 2},
	} {
		postAdmit(t, hs.Client(), hs.URL, req)
		// The handler ends the encode span after the client may have
		// read the response.
		waitFor(t, func() bool { return s.met.encode.Count() == want["encode"] })
		snap := reg.Snapshot()
		var before int64 // nanoseconds in the stages before encode
		for _, stage := range stages {
			h, ok := snap.Histograms["stage.serve."+stage+".seconds"]
			if !ok || h.Count != want[stage] || h.SumNS < 0 {
				t.Fatalf("stage %s: %+v, want %d observations and a sum >= 0", stage, h, want[stage])
			}
			if stage != "encode" {
				before += h.SumNS
			}
		}
		if total := snap.Histograms["serve.request.seconds"].SumNS; before > total {
			t.Errorf("stages before encode sum to %d ns, more than the %d ns requests took", before, total)
		}
	}
}

// waitFor polls cond for up to 5s.
func waitFor(tb testing.TB, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatalf("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
