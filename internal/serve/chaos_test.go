package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"catpa/internal/mc"
	"catpa/internal/obs"
	"catpa/internal/partition"
)

// The chaos suite scripts faults at the three injection points of the
// Hooks seam — handler goroutine, worker pre-evaluation, and between
// scheme evaluations — and proves the daemon's robustness layers: it
// never exits, /healthz stays green, unaffected concurrent requests
// keep getting full-analysis verdicts, and every fault is answered
// with an honest error or partial response.

func TestChaosPanicInHandler(t *testing.T) {
	reg := obs.NewRegistry()
	s, hs := newTestServer(t, Config{
		Metrics: reg,
		Hooks: &Hooks{InHandler: func(tag string) {
			if tag == "bomb" {
				panic("chaos: handler bomb")
			}
		}},
	})
	ts := feasibleSet(t)

	status, resp := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4, Tag: "bomb"})
	if status != http.StatusInternalServerError {
		t.Fatalf("bombed request: status = %d, want 500", status)
	}
	if !strings.Contains(resp.Error, "handler bomb") {
		t.Errorf("bombed request error = %q", resp.Error)
	}
	if got := s.met.panics.Value(); got != 1 {
		t.Errorf("serve.panics.recovered = %d, want 1", got)
	}
	if getStatus(t, hs.Client(), hs.URL+"/healthz") != http.StatusOK {
		t.Errorf("/healthz not green after a handler panic")
	}
	if status, resp := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4, Tag: "clean"}); status != http.StatusOK || resp.Error != "" {
		t.Errorf("clean request after panic: status %d, error %q", status, resp.Error)
	}
}

func TestChaosPanicInWorker(t *testing.T) {
	reg := obs.NewRegistry()
	s, hs := newTestServer(t, Config{
		Workers:   1,  // the sole worker must survive its own panic
		CacheSize: -1, // force every request through the worker
		Metrics:   reg,
		Hooks: &Hooks{BeforeEvaluate: func(tag string) {
			if tag == "bomb" {
				panic("chaos: worker bomb")
			}
		}},
	})
	ts := feasibleSet(t)

	for i := 0; i < 3; i++ {
		status, resp := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4, Tag: "bomb"})
		if status != http.StatusInternalServerError {
			t.Fatalf("bomb %d: status = %d, want 500", i, status)
		}
		if !strings.Contains(resp.Error, "evaluation panicked") {
			t.Errorf("bomb %d: error = %q", i, resp.Error)
		}
		// The quarantine is per-request: the same worker serves the
		// next request on a fresh pooled Partitioner.
		status, resp = postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4, Tag: "clean"})
		if status != http.StatusOK || resp.Error != "" || resp.Degraded {
			t.Fatalf("clean %d after worker panic: status %d, %+v", i, status, resp)
		}
	}
	if got := s.met.panics.Value(); got != 3 {
		t.Errorf("serve.panics.recovered = %d, want 3", got)
	}
}

func TestChaosSlowBackendYieldsPartialVerdicts(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs := newTestServer(t, Config{
		RequestTimeout: 10 * time.Second,
		PartialGrace:   5 * time.Second,
		Metrics:        reg,
		Hooks: &Hooks{DuringEvaluate: func(tag string, i int) {
			// The backend turns to molasses at the third scheme: by the
			// time it wakes, the request deadline has long fired.
			if tag == "slow" && i == 2 {
				time.Sleep(300 * time.Millisecond)
			}
		}},
	})
	ts := feasibleSet(t)
	names := make([]string, len(partition.Schemes))
	for i, s := range partition.Schemes {
		names[i] = s.String()
	}

	status, resp := postAdmit(t, hs.Client(), hs.URL, &Request{
		TaskSet: ts, M: 4, Schemes: names, Tag: "slow", TimeoutMS: 50,
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 with a partial body", status)
	}
	if !resp.Partial {
		t.Fatalf("response not marked partial: %+v", resp)
	}
	if len(resp.Verdicts) != 2 {
		t.Fatalf("got %d verdicts before the deadline, want exactly 2", len(resp.Verdicts))
	}
	p := partition.New(4, ts.MaxCrit())
	p.Prepare(ts)
	for i := 0; i < 2; i++ {
		p.Place(partition.Schemes[i], nil)
		want := p.Summarize()
		if resp.Verdicts[i].Admitted != want.Feasible {
			t.Errorf("partial verdict %d disagrees with direct analysis", i)
		}
	}
	if !strings.Contains(resp.Reason, "2 of 5 schemes") {
		t.Errorf("reason = %q", resp.Reason)
	}
	// Partial responses must not poison the cache: the retry gets the
	// full batch.
	status, full := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4, Schemes: names, Tag: "retry"})
	if status != http.StatusOK || full.Cached || full.Partial || len(full.Verdicts) != len(names) {
		t.Errorf("retry after partial: status %d, %+v", status, full)
	}
}

func TestChaosStallBeyondGraceIs504(t *testing.T) {
	_, hs := newTestServer(t, Config{
		RequestTimeout: 10 * time.Second,
		PartialGrace:   20 * time.Millisecond,
		Metrics:        obs.NewRegistry(),
		Hooks: &Hooks{BeforeEvaluate: func(tag string) {
			if tag == "wedge" {
				time.Sleep(400 * time.Millisecond)
			}
		}},
	})
	ts := feasibleSet(t)
	status, resp := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4, Tag: "wedge", TimeoutMS: 50})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
	if !resp.Partial || resp.Verdict != VerdictUncertain || !strings.Contains(resp.Error, "deadline exceeded") {
		t.Errorf("504 body = %+v", resp)
	}
	// The wedged worker publishes its late verdict into the buffered
	// done channel and moves on — the daemon still answers.
	waitFor(t, func() bool {
		status, resp := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: ts, M: 4, Tag: "after"})
		return status == http.StatusOK && resp.Error == ""
	})
}

// TestChaosConcurrentMixedFaults is the flagship: all three injection
// points fire concurrently under load while unaffected requests must
// keep receiving verdicts that agree with direct analysis.
func TestChaosConcurrentMixedFaults(t *testing.T) {
	reg := obs.NewRegistry()
	s, hs := newTestServer(t, Config{
		Workers:          4,
		QueueDepth:       128, // above peak storm concurrency: no shedding here
		DegradeWatermark: -1,  // clean traffic must get full analysis
		RequestTimeout:   30 * time.Second,
		PartialGrace:     5 * time.Second,
		CacheSize:        -1, // every clean verdict must come from a real evaluation
		Metrics:          reg,
		Hooks: &Hooks{
			InHandler: func(tag string) {
				if strings.HasPrefix(tag, "bomb-handler") {
					panic("chaos: handler bomb")
				}
			},
			BeforeEvaluate: func(tag string) {
				if strings.HasPrefix(tag, "bomb-worker") {
					panic("chaos: worker bomb")
				}
			},
			DuringEvaluate: func(tag string, i int) {
				if strings.HasPrefix(tag, "slow") && i == 1 {
					time.Sleep(80 * time.Millisecond)
				}
			},
		},
	})

	// Four distinct clean workloads with precomputed direct verdicts.
	type cleanCase struct {
		ts   *mc.TaskSet
		m    int
		want bool
	}
	cleans := make([]cleanCase, 0, 4)
	for i, seed := range []int64{11, 7, 23, 42} {
		ts := genSet(t, 4, 2, 20+2*i, []float64{0.5, 0.85, 0.6, 0.7}[i], seed)
		m := []int{4, 2, 4, 3}[i]
		want := false
		p := partition.New(m, ts.MaxCrit())
		p.Prepare(ts)
		for _, scheme := range partition.Schemes {
			if p.Place(scheme, nil); p.Summarize().Feasible {
				want = true
				break
			}
		}
		cleans = append(cleans, cleanCase{ts, m, want})
	}
	names := make([]string, len(partition.Schemes))
	for i, sch := range partition.Schemes {
		names[i] = sch.String()
	}

	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, 4*rounds*3)
	healthStop := make(chan struct{})
	var healthWG sync.WaitGroup
	healthWG.Add(1)
	go func() { // health prober runs for the whole storm
		defer healthWG.Done()
		for {
			select {
			case <-healthStop:
				return
			default:
			}
			if got := getStatus(t, hs.Client(), hs.URL+"/healthz"); got != http.StatusOK {
				errs <- fmt.Errorf("/healthz = %d mid-chaos", got)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	var handlerBombs, workerBombs int
	for r := 0; r < rounds; r++ {
		for c := range cleans {
			cc := cleans[c]
			wg.Add(3)
			go func(r, c int) { // clean traffic: must get exact verdicts
				defer wg.Done()
				status, resp := postAdmit(t, hs.Client(), hs.URL, &Request{
					TaskSet: cc.ts, M: cc.m, Schemes: names, Tag: fmt.Sprintf("clean-%d-%d", r, c),
				})
				if status != http.StatusOK || resp.Degraded || resp.Partial || resp.Error != "" {
					errs <- fmt.Errorf("clean %d/%d: status %d flags %+v", r, c, status, resp)
					return
				}
				if resp.Admitted != cc.want {
					errs <- fmt.Errorf("clean %d/%d: admitted=%v, direct analysis says %v", r, c, resp.Admitted, cc.want)
				}
			}(r, c)
			bombTag := fmt.Sprintf("bomb-handler-%d-%d", r, c)
			if (r+c)%2 == 1 {
				bombTag = fmt.Sprintf("bomb-worker-%d-%d", r, c)
				workerBombs++
			} else {
				handlerBombs++
			}
			go func(tag string) { // faulty traffic: must fail honestly
				defer wg.Done()
				status, resp := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: cc.ts, M: cc.m, Tag: tag})
				if status != http.StatusInternalServerError || !strings.Contains(resp.Error, "chaos") {
					errs <- fmt.Errorf("%s: status %d, error %q", tag, status, resp.Error)
				}
			}(bombTag)
			go func(r, c int) { // slow traffic: partial but honest
				defer wg.Done()
				status, resp := postAdmit(t, hs.Client(), hs.URL, &Request{
					TaskSet: cc.ts, M: cc.m, Schemes: names, Tag: fmt.Sprintf("slow-%d-%d", r, c), TimeoutMS: 30,
				})
				if resp.Admitted && !cc.want {
					errs <- fmt.Errorf("slow %d/%d: admitted an infeasible set", r, c)
				}
				if status != http.StatusOK && status != http.StatusGatewayTimeout {
					errs <- fmt.Errorf("slow %d/%d: status %d", r, c, status)
				}
			}(r, c)
		}
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("chaos storm wedged the daemon")
	}
	close(healthStop)
	healthWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.met.panics.Value(); got != int64(handlerBombs+workerBombs) {
		t.Errorf("serve.panics.recovered = %d, want %d", got, handlerBombs+workerBombs)
	}
	// The storm is over and the daemon is still fully alive.
	if status, resp := postAdmit(t, hs.Client(), hs.URL, &Request{TaskSet: cleans[0].ts, M: cleans[0].m}); status != http.StatusOK || resp.Error != "" {
		t.Errorf("post-storm request: status %d, %+v", status, resp)
	}
}
