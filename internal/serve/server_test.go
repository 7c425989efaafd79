package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"catpa/internal/edfvd"
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

// TestVerdictCacheRoundTrip: an exact repeat of a request is a hit that
// echoes the request's own tag, and any other body — another tag,
// another m — is a different question and misses.
func TestVerdictCacheRoundTrip(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	req := &Request{TaskSet: feasibleSet(t), M: 4, Tag: "first"}
	_, cold := postAdmit(t, hs.Client(), hs.URL, req)
	if cold.Cached {
		t.Fatalf("first request served from an empty cache")
	}
	_, warm := postAdmit(t, hs.Client(), hs.URL, req)
	if !warm.Cached {
		t.Fatalf("second identical request missed the cache")
	}
	if warm.Tag != "first" {
		t.Errorf("cached response echoes tag %q, want %q", warm.Tag, "first")
	}
	warm.Cached = false
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("cache changed the answer: %+v vs %+v", warm, cold)
	}
	s.cache.mu.Lock()
	n := len(s.cache.m)
	s.cache.mu.Unlock()
	if n != 1 {
		t.Errorf("cache holds %d entries, want 1", n)
	}
	req.Tag = "second"
	if _, other := postAdmit(t, hs.Client(), hs.URL, req); other.Cached || other.Tag != "second" {
		t.Errorf("a retagged request hit the cache: %+v", other)
	}
	req.M = 3
	if _, other := postAdmit(t, hs.Client(), hs.URL, req); other.Cached {
		t.Errorf("m=3 hit the m=4 cache entry")
	}
}

// TestVerdictCacheReversedRequest: a reversed request, IDs renumbered by
// position, asks for another assignment. Served from the cache entry of
// the original order, its cores would be infeasible; every answer must
// be a cold analysis whose cores EDF-VD accepts in the request's own
// order.
func TestVerdictCacheReversedRequest(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	admitted := 0
	for seed := int64(0); seed < 40; seed++ {
		ts := genSet(t, 4, 2, 24, 0.7, seed)
		_, orig := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4})
		if !orig.Admitted {
			continue
		}
		admitted++
		n := ts.Len()
		rev := mc.NewTaskSetCap(n)
		for i := range ts.Tasks {
			task := ts.Tasks[n-1-i]
			task.ID = i + 1
			rev.Tasks = append(rev.Tasks, task)
		}
		_, resp := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: rev, M: 4})
		if resp.Cached {
			t.Errorf("seed %d: the reversed request was served from the cache", seed)
		}
		if !resp.Admitted {
			t.Errorf("seed %d: the reversed request was rejected: %+v", seed, resp)
			continue
		}
		cores := make([]*mc.UtilMatrix, 4)
		for c := range cores {
			cores[c] = mc.NewUtilMatrix(2)
		}
		for ti, c := range resp.Verdicts[0].Assignment {
			cores[c].Add(&rev.Tasks[ti])
		}
		for c, m := range cores {
			if !edfvd.Feasible(m) {
				t.Errorf("seed %d: the reversed request's core %d is EDF-VD-infeasible", seed, c)
			}
		}
	}
	if admitted < 30 {
		t.Fatalf("only %d of 40 sets admitted; the test needs most of them", admitted)
	}
}

// TestVerdictCachePermutation: permuting a request with its task IDs
// attached permutes the answer, on both backends, whether the daemon
// analyzes the permuted request cold or serves its repeat from the
// cache.
func TestVerdictCachePermutation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	names := make([]string, len(partition.Schemes))
	for i, scheme := range partition.Schemes {
		names[i] = scheme.String()
	}
	cases := []struct {
		backend string
		k       int
	}{{"edfvd", 2}, {"edfvd", 3}, {"edfvd", 4}, {"amcrtb", 2}}
	for _, tc := range cases {
		admitted := 0
		for seed := int64(0); seed < 8; seed++ {
			ts := genSet(t, 4, tc.k, 24, 0.55, seed)
			req := &Request{TaskSet: ts, M: 4, K: tc.k, Backend: tc.backend, Schemes: names}
			_, orig := postAdmit(t, hs.Client(), hs.URL, req)
			if orig.Cached || orig.Error != "" {
				t.Fatalf("%s K=%d seed %d: original %+v", tc.backend, tc.k, seed, orig)
			}
			if orig.Admitted {
				admitted++
			}
			perm := rand.New(rand.NewSource(seed)).Perm(ts.Len())
			shuffled := mc.NewTaskSetCap(ts.Len())
			for _, j := range perm {
				shuffled.Tasks = append(shuffled.Tasks, ts.Tasks[j])
			}
			want := permuted(orig, perm)
			preq := *req
			preq.TaskSet = shuffled
			for _, cached := range []bool{false, true} {
				_, got := postAdmit(t, hs.Client(), hs.URL, &preq)
				if got.Cached != cached || !reflect.DeepEqual(got.Verdicts, want.Verdicts) ||
					got.Admitted != want.Admitted || got.Verdict != want.Verdict {
					t.Errorf("%s K=%d seed %d (cached %v): permuted request answered %+v\nwant %+v",
						tc.backend, tc.k, seed, cached, got, want)
				}
			}
		}
		t.Logf("%s K=%d: %d of 8 sets admitted", tc.backend, tc.k, admitted)
		if admitted == 0 {
			t.Errorf("%s K=%d: no set admitted; the test must compare assignments", tc.backend, tc.k)
		}
	}
}

// permuted returns resp's answer for the request whose task i is the
// original's task perm[i].
func permuted(resp *Response, perm []int) *Response {
	out := *resp
	out.Verdicts = slices.Clone(resp.Verdicts)
	for i, v := range out.Verdicts {
		if v.Assignment == nil {
			continue
		}
		a := make([]int, len(perm))
		for ti, j := range perm {
			a[ti] = v.Assignment[j]
		}
		out.Verdicts[i].Assignment = a
	}
	return &out
}

// TestVerdictCacheNearDuplicateMisses: a WCET 1e-12 away is another
// question, however small the difference; it must not share the cache
// entry of the original.
func TestVerdictCacheNearDuplicateMisses(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ts := feasibleSet(t)
	if _, resp := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4}); resp.Cached {
		t.Fatalf("first request served from an empty cache")
	}
	w := ts.Tasks[0].WCET
	w[len(w)-1] += 1e-12
	if _, resp := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4}); resp.Cached {
		t.Errorf("a WCET 1e-12 larger hit the original's cache entry")
	}
}

// TestVerdictCacheConcurrentHits: concurrent requests for the same few
// bodies put and hit the cache at once, and every answer, cached or
// not, is the direct analysis of its own request.
func TestVerdictCacheConcurrentHits(t *testing.T) {
	s, hs := newTestServer(t, Config{Metrics: obs.NewRegistry()})
	reqs := []*Request{{TaskSet: feasibleSet(t), M: 4}, {TaskSet: overloadedSet(t), M: 4}, {TaskSet: feasibleSet(t), M: 3}}
	bodies := make([][]byte, len(reqs))
	wants := make([]*Response, len(reqs))
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
		wants[i] = directResponse(t, req.TaskSet, req.M, 2, "edfvd", []string{"CA-TPA"})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (g + i) % len(reqs)
				hr, err := hs.Client().Post(hs.URL+"/v1/admit", "application/json", bytes.NewReader(bodies[k]))
				if err != nil {
					t.Errorf("POST: %v", err)
					return
				}
				var got Response
				err = json.NewDecoder(hr.Body).Decode(&got)
				hr.Body.Close()
				want := wants[k]
				if err != nil || got.Admitted != want.Admitted || got.Verdict != want.Verdict ||
					got.Reason != want.Reason || !reflect.DeepEqual(got.Verdicts, want.Verdicts) {
					t.Errorf("request %d (cached %v): got %+v (%v), want %+v", k, got.Cached, got, err, want)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.met.cached.Value() == 0 {
		t.Errorf("no request was served from the cache")
	}
}

func TestCacheEviction(t *testing.T) {
	c := newVerdictCache(2)
	k := func(i int) cacheKey { return sha256.Sum256([]byte(strconv.Itoa(i))) }
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
	if len(c.m) != 2 || len(c.order) != 2 {
		t.Errorf("%d entries in the map and %d in the ring, want 2 and 2", len(c.m), len(c.order))
	}
	var nilCache *verdictCache
	nilCache.put(k(9), &Response{})
	if nilCache.get(k(9)) != nil {
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
