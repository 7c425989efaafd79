package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"catpa/internal/mc"
	"catpa/internal/obs"
	"catpa/internal/partition"
	"catpa/internal/serve"
	"catpa/internal/taskgen"
)

// serveJob is the serve-admit workload: an in-process serve.NewServer
// with one worker and otherwise the default configuration (queue 256,
// cache 1024), called through its http.Handler by one open-loop
// dispatcher at two phases, healthy at 1000 req/s and overload at
// 6000 req/s. Requests carry 96-task K=2 sets on M=8 cores with all
// five schemes; half of the sets are require_full; their NSU spans the
// admission boundary, so admits, rejects and screen-certified rejects
// all occur; about half of the requests repeat a recently sent set, so
// the verdict cache gets real hits. Handler calls, not loopback
// connections, carry the load: a connection-bound client never lets the
// daemon's queue fill, so its degrade and 429 paths would go unmeasured.
type serveJob struct {
	seed   int64
	corpus int

	base  int64       // generation seed of the corpus sets
	items []serveItem // the distinct sets offered, cycled
	srv   *serve.Server
	reg   *obs.Registry
	part  *partition.Partitioner  // reference analyses
	refs  map[int]*serve.Response // reference verdict per item

	rng     *rand.Rand // draws the request schedule
	next    int        // next fresh corpus set to send
	healthy []*phaseStats
}

// serveItem is one distinct admission question: the encoded request
// and the NSU its set was generated at. The set itself is regenerated
// for reference checks rather than kept, so the benchmark adds little
// pointer-rich heap for the daemon's garbage collector to mark.
type serveItem struct {
	nsu  float64
	body []byte
}

const (
	serveM, serveK, serveN = 8, 2, 96
	nsuLo, nsuHi           = 0.55, 1.15

	healthyRate  = 1000.0
	overloadRate = 6000.0
	healthyShare = 0.8 // of the serve budget; overload gets the rest
	repeatShare  = 0.5 // requests that repeat a recent set
	recentSets   = 32  // how far back a repeat reaches, in fresh sets
	warmRequests = 32

	// clientTimeout is how long after its due time a request may be
	// answered before the client counts it as never answered: the
	// daemon's 2 s request deadline plus slack.
	clientTimeout = 2500 * time.Millisecond
	// failedLatency stands for the latency of a failed or unanswered
	// request, which misses every latency limit.
	failedLatency = time.Hour
	// maxLateBound is how far the dispatcher may fall behind its
	// schedule. The dispatcher shares the CPUs with the daemon, so under
	// overload it runs late by design; but a request sent later than the
	// daemon's own 2 s deadline could not be answered in time by any
	// daemon, so such a phase measures the generator: it is invalid, not
	// slow.
	maxLateBound = 2 * time.Second
)

func (*serveJob) name() string { return wlServe }

func (j *serveJob) close() {
	if j.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = j.srv.Shutdown(ctx) // the handler calls have all returned; nothing is queued
	j.srv = nil
}

// setup generates the corpus, encodes every request, and starts a
// fresh daemon warmed with requests for sets outside the corpus.
func (j *serveJob) setup() error {
	j.close()
	rng := rand.New(rand.NewSource(subSeed(j.seed, streamServe, 0)))
	j.base = subSeed(j.seed, streamServe, 1)
	schemes := schemeNames()
	all := make([]serveItem, j.corpus+warmRequests)
	for i := range all {
		nsu := nsuLo + (nsuHi-nsuLo)*rng.Float64()
		body, err := json.Marshal(&serve.Request{
			TaskSet: j.taskSet(i, nsu), M: serveM, K: serveK, Schemes: schemes, RequireFull: i%2 == 1,
		})
		if err != nil {
			return fmt.Errorf("encode request %d: %w", i, err)
		}
		all[i] = serveItem{nsu: nsu, body: body}
	}
	j.part = partition.New(serveM, serveK)
	j.refs = make(map[int]*serve.Response)
	j.rng, j.next = rand.New(rand.NewSource(subSeed(j.seed, streamServe, 2))), 0
	j.items = all[:j.corpus]
	j.reg = obs.NewRegistry()
	j.srv = serve.NewServer(serve.Config{Workers: 1, Metrics: j.reg})
	for _, it := range all[j.corpus:] {
		if status, body := post(j.srv, it.body); status != http.StatusOK {
			return fmt.Errorf("warm-up request: status %d: %s", status, body)
		}
	}
	return nil
}

// taskSet generates corpus set i at the given NSU.
func (j *serveJob) taskSet(i int, nsu float64) *mc.TaskSet {
	cfg := taskgen.DefaultConfig()
	cfg.M, cfg.K, cfg.N, cfg.NSU = serveM, serveK, taskgen.IntRange{Lo: serveN, Hi: serveN}, nsu
	return taskgen.GenerateIndexed(&cfg, j.base, i)
}

// post calls the handler with one admission request.
func post(h http.Handler, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/admit", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// sample runs one healthy and one overload phase on budget, checking
// every answer of both. Only the healthy phase feeds an end-to-end
// metric: the overload outcome shares swing between regimes with the
// host's speed (see the traced run's serve.overload.* metrics).
func (j *serveJob) sample(budget time.Duration, ck *checker) error {
	healthy, _, err := j.phases(budget, ck)
	if err != nil {
		return err
	}
	j.healthy = append(j.healthy, healthy)
	return nil
}

// report takes the healthy p50 from the run's least-disturbed healthy
// phase. On a shared host the hypervisor steals CPU in bursts lasting
// seconds; a burst that lands in a phase moves its latency far more
// than any code change would.
func (j *serveJob) report(m metrics) {
	p50 := math.Inf(1)
	for _, h := range j.healthy {
		p50 = math.Min(p50, ms(percentile(h.latencies, 50)))
	}
	m["serve.healthy.p50_ms"] = p50
}

// trace runs both phases for the cache and overload attributions, then
// times the request path's stages in isolation on the corpus: decode,
// hash, analyze, screen and encode.
func (j *serveJob) trace(budget time.Duration, m metrics, ck *checker, prof *profiler) (*layerRun, error) {
	healthy, overload, err := j.phases(budget/2, ck)
	if err != nil {
		return nil, err
	}
	cost, err := j.isolates(32, nil)
	if err != nil {
		return nil, err
	}
	n := max(32, int(budget/6/(cost/32)))
	lr := &layerRun{tr: newTracer()}
	err = lr.measure(prof, func() (time.Duration, error) {
		return j.isolates(n, nil)
	}, func() (time.Duration, error) {
		return j.isolates(n, lr.tr)
	})
	if err != nil {
		return nil, err
	}
	tr := lr.tr
	ck.ops += int64(3 * n)

	stages := 0.0
	for _, name := range []string{"serve.decode", "mc.hash", "serve.analyze", "serve.screen", "serve.encode"} {
		mean := tr.get(name).mean(time.Microsecond)
		m[name+".us"] = mean
		if name != "serve.screen" { // only the degraded tier screens
			stages += mean
		}
	}
	m["serve.healthy.p99_ms"] = ms(percentile(healthy.latencies, 99))
	m["serve.queue_wait.us"] = us(percentile(healthy.missService, 50)) - stages
	m["serve.cache.hit_ratio"] = float64(healthy.cached) / float64(healthy.offered)
	m["serve.cache.hit_p50_us"] = us(percentile(healthy.hitService, 50))
	m["serve.cache.miss_p50_us"] = us(percentile(healthy.missService, 50))
	m["serve.overload.goodput_rps"] = float64(overload.goodput) / overload.span.Seconds()
	m["serve.overload.failed_share"] = float64(overload.shed+overload.errors+overload.unanswered) / float64(overload.offered)
	m["serve.overload.degraded_share"] = float64(overload.degraded) / float64(overload.offered)
	m["serve.overload.shed_share"] = float64(overload.shed) / float64(overload.offered)
	m["serve.overload.partial_share"] = float64(overload.partial) / float64(overload.offered)
	m["serve.generator.max_late_ms"] = ms(max(healthy.maxLate, overload.maxLate))
	return lr, nil
}

// isolates times the request path's stages on the first n corpus
// requests (cycled), with a span around each stage when tr is non-nil:
// json.Unmarshal into serve.Request (which validates the task set),
// mc.TaskSetHash, Partitioner.Run for the five schemes on a pooled
// partitioner, serve.Screen, and the indented encode of the response.
func (j *serveJob) isolates(n int, tr *tracer) (time.Duration, error) {
	decS := tr.span("serve.decode", "encoding/json.Unmarshal")
	hashS := tr.span("mc.hash", "catpa/internal/mc.TaskSetHash")
	anaS := tr.span("serve.analyze", "catpa/internal/partition.(*Partitioner).Run")
	scrS := tr.span("serve.screen", "catpa/internal/serve.Screen")
	encS := tr.span("serve.encode", "encoding/json.(*Encoder).Encode")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		var req serve.Request
		sp := decS.start()
		err := json.Unmarshal(j.items[i%len(j.items)].body, &req)
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("decode request %d: %w", i, err)
		}
		sp = hashS.start()
		h := mc.TaskSetHash(req.TaskSet)
		sp.end()
		sp = anaS.start()
		resp := analyze(j.part, req.TaskSet)
		sp.end()
		resp.TaskSetHash = fmt.Sprintf("%016x", h)
		sp = scrS.start()
		serve.Screen(req.TaskSet, serveM, serveK)
		sp.end()
		buf.Reset()
		sp = encS.start()
		err = enc.Encode(resp)
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("encode response %d: %w", i, err)
		}
	}
	return time.Since(t0), nil
}

// analyze runs the five schemes on a pooled partitioner and assembles
// their verdicts as the daemon reports a complete analysis.
func analyze(p *partition.Partitioner, ts *mc.TaskSet) *serve.Response {
	p.Reset(serveM, serveK)
	resp := &serve.Response{Verdict: serve.VerdictRejected}
	for _, s := range partition.Schemes {
		res := p.Run(ts, s, nil)
		v := serve.Verdict{Scheme: s.String(), Admitted: res.Feasible}
		if res.Feasible {
			v.Usys, v.Uavg, v.Imbalance = res.Usys, res.Uavg, res.Imbalance
			if !resp.Admitted {
				resp.Admitted, resp.Verdict = true, serve.VerdictAdmitted
				v.Assignment = append([]int(nil), res.Assignment...)
			}
		}
		resp.Verdicts = append(resp.Verdicts, v)
	}
	return resp
}

// reference returns item k's verdict from a direct analysis.
func (j *serveJob) reference(k int) *serve.Response {
	if r := j.refs[k]; r != nil {
		return r
	}
	ts := j.taskSet(k, j.items[k].nsu)
	r := analyze(j.part, ts)
	r.TaskSetHash = fmt.Sprintf("%016x", mc.TaskSetHash(ts))
	j.refs[k] = r
	return r
}

// phases runs the healthy phase on healthyShare of budget and the
// overload phase on the rest, continuing one request schedule.
func (j *serveJob) phases(budget time.Duration, ck *checker) (healthy, overload *phaseStats, err error) {
	hd := time.Duration(float64(budget) * healthyShare)
	if healthy, err = j.phase("healthy", healthyRate, hd, ck); err != nil {
		return nil, nil, err
	}
	if overload, err = j.phase("overload", overloadRate, budget-hd, ck); err != nil {
		return nil, nil, err
	}
	return healthy, overload, nil
}

// phase offers d of scheduled requests at rate, checks every answer and
// the daemon's counters, and summarizes the phase.
func (j *serveJob) phase(label string, rate float64, d time.Duration, ck *checker) (*phaseStats, error) {
	n := max(1, int(rate*d.Seconds()))
	idx := schedule(n, len(j.items), j.rng, &j.next)
	bodies := make([][]byte, n)
	for i, k := range idx {
		bodies[i] = j.items[k].body
	}
	runtime.GC() // start from a collected heap, not the last job's garbage
	before, err := j.scrape()
	if err != nil {
		return nil, err
	}
	interval := time.Duration(float64(time.Second) / rate)
	out := runPhase(j.srv, bodies, interval)
	after, err := j.scrape()
	if err != nil {
		return nil, err
	}
	ck.ops += int64(n)
	resps := make([]*serve.Response, n)
	for i := range out {
		var r serve.Response
		if ck.expect(json.Unmarshal(out[i].body, &r) == nil, "%s request %d: status %d, undecodable body %q", label, i, out[i].status, out[i].body) {
			resps[i] = &r
		}
		if resps[i] != nil && (out[i].status == http.StatusOK || out[i].status == http.StatusInternalServerError) {
			err := checkVerdict(j.reference(idx[i]), resps[i])
			ck.expect(err == nil, "%s request %d (set %d): %v", label, i, idx[i], err)
		}
	}
	st := summarize(out, resps, interval)
	st.checkCounters(ck, label, before, after)
	fmt.Fprintf(ck.log, "mcbench: serve %s: %d offered at %.0f/s: %d definitive in time, %d cached, %d degraded, %d shed, %d errors, %d unanswered; p50 %.3f ms, p99 %.3f ms, max late %.1f ms\n",
		label, st.offered, rate, st.goodput, st.cached, st.degraded, st.shed, st.errors, st.unanswered,
		ms(percentile(st.latencies, 50)), ms(percentile(st.latencies, 99)), ms(st.maxLate))
	if st.maxLate > maxLateBound {
		return nil, fmt.Errorf("%s phase invalid: the dispatcher fell %v behind its schedule (bound %v)", label, st.maxLate, maxLateBound)
	}
	return st, nil
}

// schedule draws one phase's request sequence over a corpus of the
// given size: with probability repeatShare a request repeats one of the
// last recentSets fresh sets, otherwise it sends the next fresh set of
// the corpus, cycling.
func schedule(n, corpus int, rng *rand.Rand, next *int) []int {
	out := make([]int, n)
	var recent [recentSets]int
	fresh := 0
	for i := range out {
		if fresh > 0 && rng.Float64() < repeatShare {
			out[i] = recent[rng.Intn(min(fresh, recentSets))]
			continue
		}
		out[i] = *next % corpus
		*next++
		recent[fresh%recentSets] = out[i]
		fresh++
	}
	return out
}

// outcome is one request of a phase, timed from the phase start.
type outcome struct {
	sent, done time.Duration
	status     int
	body       []byte
}

// senders is the client's concurrency: enough handler calls in flight
// to keep the daemon's queue (256) full under overload, so its degrade
// and 429 paths are exercised steadily rather than at the margin, while
// the goroutines the client adds stay bounded. Requests beyond it wait
// in the client, and their wait counts in their latency.
const senders = 400

// runPhase offers bodies open-loop: request i is due i*interval after
// the start, and the dispatcher hands it to the sender pool then, or as
// soon as it gets the CPU when it runs late, whether or not earlier
// requests were answered. A request that waits for a free sender counts
// that wait: outcomes are timed from the phase start and summarize
// measures latency from the due time. It returns once every request is
// answered.
func runPhase(h http.Handler, bodies [][]byte, interval time.Duration) []outcome {
	out := make([]outcome, len(bodies))
	due := make(chan int, len(bodies)) // never blocks the dispatcher
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				o := &out[i]
				o.status, o.body = post(h, bodies[i])
				o.done = time.Since(start)
			}
		}()
	}
	for i := range bodies {
		// Sleep through long gaps; poll with Gosched close to the due
		// time, since a sleep wakes up to a millisecond late.
		for {
			wait := time.Duration(i)*interval - time.Since(start)
			if wait <= 0 {
				break
			}
			if wait > 2*time.Millisecond {
				time.Sleep(wait - time.Millisecond)
			} else {
				runtime.Gosched()
			}
		}
		out[i].sent = time.Since(start)
		due <- i
	}
	close(due)
	wg.Wait()
	return out
}

// phaseStats summarizes one phase as the client saw it, plus the
// outcome counts as the daemon books them.
type phaseStats struct {
	offered int
	span    time.Duration // the phase's scheduled length
	maxLate time.Duration // how far the dispatcher fell behind

	// latencies are measured from each request's due time, sorted;
	// failed and unanswered requests count as failedLatency.
	latencies []time.Duration
	// hitService and missService are the send-to-answer times of cache
	// hits and of full-analysis misses, sorted.
	hitService, missService []time.Duration

	goodput    int // admitted or rejected (certified rejects included), in time
	shed       int // 429
	errors     int // 5xx, 504 included
	unanswered int // answered 2xx, but after the client gave up

	// As booked by the daemon's counters.
	degraded, partial, cached     int
	admitted, rejected, uncertain int
}

// summarize classifies a phase's outcomes; resps holds each decoded
// answer (nil when undecodable) and request i was due i*interval after
// the phase start.
func summarize(out []outcome, resps []*serve.Response, interval time.Duration) *phaseStats {
	s := &phaseStats{offered: len(out), span: time.Duration(len(out)) * interval}
	for i := range out {
		o, r := &out[i], resps[i]
		due := time.Duration(i) * interval
		s.maxLate = max(s.maxLate, o.sent-due)
		lat := o.done - due
		inTime := lat <= clientTimeout
		switch {
		case o.status == http.StatusTooManyRequests:
			s.shed++
		case o.status == http.StatusGatewayTimeout:
			s.errors++
			s.partial++
		case o.status >= 500:
			s.errors++
		case !inTime:
			s.unanswered++
		}
		if o.status != http.StatusOK || !inTime || r == nil {
			s.latencies = append(s.latencies, failedLatency)
		} else {
			s.latencies = append(s.latencies, lat)
			if r.Verdict == serve.VerdictAdmitted || r.Verdict == serve.VerdictRejected {
				s.goodput++
			}
		}
		if r == nil || (o.status != http.StatusOK && o.status != http.StatusInternalServerError) {
			continue
		}
		switch {
		case r.Cached:
			s.cached++
			s.hitService = append(s.hitService, o.done-o.sent)
		case r.Degraded:
			s.degraded++
		default:
			if r.Partial {
				s.partial++
			} else if o.status == http.StatusOK {
				s.missService = append(s.missService, o.done-o.sent)
			}
			switch r.Verdict {
			case serve.VerdictAdmitted:
				s.admitted++
			case serve.VerdictRejected:
				s.rejected++
			default:
				s.uncertain++
			}
		}
	}
	for _, d := range [][]time.Duration{s.latencies, s.hitService, s.missService} {
		slices.Sort(d)
	}
	return s
}

// checkCounters compares the phase's outcome counts with the daemon's
// /metricz counters over the phase.
func (s *phaseStats) checkCounters(ck *checker, label string, before, after *obs.Snapshot) {
	want := map[string]int{
		"serve.requests.total":     s.offered,
		"serve.requests.admitted":  s.admitted,
		"serve.requests.rejected":  s.rejected,
		"serve.requests.uncertain": s.uncertain,
		"serve.requests.shed":      s.shed,
		"serve.requests.degraded":  s.degraded,
		"serve.requests.partial":   s.partial,
		"serve.requests.cached":    s.cached,
		"serve.requests.invalid":   0,
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got := after.Counters[name] - before.Counters[name]
		ck.expect(got == int64(want[name]), "%s phase: /metricz %s moved by %d, the client counted %d", label, name, got, want[name])
	}
}

// scrape reads the daemon's /metricz snapshot through the handler.
func (j *serveJob) scrape() (*obs.Snapshot, error) {
	rec := httptest.NewRecorder()
	j.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricz", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metricz: status %d", rec.Code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		return nil, fmt.Errorf("/metricz: %w", err)
	}
	return &snap, nil
}

// checkVerdict checks a daemon answer against the direct analysis of
// the same set: a complete verdict must equal it field for field, a
// partial one must be a prefix of it, and a degraded one may only
// reject a set the analysis rejects.
func checkVerdict(want, got *serve.Response) error {
	if got.TaskSetHash != want.TaskSetHash {
		return fmt.Errorf("task_set_hash %q, want %q", got.TaskSetHash, want.TaskSetHash)
	}
	if got.Degraded {
		switch {
		case got.Admitted || got.Verdict == serve.VerdictAdmitted:
			return fmt.Errorf("degraded answer admits")
		case got.Verdict == serve.VerdictRejected && want.Admitted:
			return fmt.Errorf("degraded answer rejects a set the analysis admits")
		}
		return nil
	}
	if len(got.Verdicts) > len(want.Verdicts) || !got.Partial && len(got.Verdicts) != len(want.Verdicts) {
		return fmt.Errorf("%d scheme verdicts, want %d", len(got.Verdicts), len(want.Verdicts))
	}
	admitted := false
	for i, g := range got.Verdicts {
		w := want.Verdicts[i]
		if g.Scheme != w.Scheme || g.Admitted != w.Admitted || !sameFloat(g.Usys, w.Usys) ||
			!sameFloat(g.Uavg, w.Uavg) || !sameFloat(g.Imbalance, w.Imbalance) || !slices.Equal(g.Assignment, w.Assignment) {
			return fmt.Errorf("scheme %s: got %+v, want %+v", w.Scheme, g, w)
		}
		admitted = admitted || g.Admitted
	}
	verdict := serve.VerdictRejected
	switch {
	case admitted:
		verdict = serve.VerdictAdmitted
	case got.Partial:
		verdict = serve.VerdictUncertain
	}
	if got.Admitted != admitted || got.Verdict != verdict {
		return fmt.Errorf("verdict %q (admitted=%v), want %q", got.Verdict, got.Admitted, verdict)
	}
	return nil
}

// sameFloat reports bitwise equality: answers carry the analysis's
// floats through an exact JSON round trip.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
