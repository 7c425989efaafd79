package main

import (
	"fmt"
	"sort"
	"strings"

	"catpa/internal/experiments"
	"catpa/internal/partition"
)

// The benchmark's workloads. Every run executes all three jobs so that
// every end-to-end metric is measured in every run; the named workload
// is the job that receives the larger share of the run's time budget
// and whose layers the traced run attributes (and profiles).
const (
	wlSweep  = "sweep-fig1"
	wlOnline = "online-onl1"
	wlServe  = "serve-admit"
)

var workloads = []string{wlSweep, wlOnline, wlServe}

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd lists the metrics of an untraced run, in report order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"sweep.sets_per_s", "1/s"},
	{"online.arrivals_per_s", "1/s"},
	{"serve.healthy.p50_ms", "ms"},
}

// sweepVariants and onlineVariants are the variant lists of Fig. 1
// and of the online companion onl1; their labels name per-variant
// layer metrics.
var (
	sweepVariants  = experiments.Figure(1, 1, 1).ActiveVariants()
	onlineVariants = experiments.OnlineFigure(1, 1).ActiveVariants()
)

// perLayer lists the metrics of a traced run, in report order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit string) { out = append(out, metricSpec{name, unit}) }

	// Shared by the jobs; the primary workload supplies the value.
	add("taskgen.generate.us_per_set", "us")
	add("trace.overhead_share", "share")
	add("layers.residual_share", "share")
	add("trace.profile_gap", "share")

	// sweep-fig1 -> sweep.sets_per_s
	add("partition.prepare.us_per_set", "us")
	for _, v := range sweepVariants {
		add("partition.place."+v.Label()+".us", "us")
	}
	add("partition.summarize.us", "us")
	for _, v := range sweepVariants {
		add("partition.accept_ratio."+v.Label(), "ratio")
	}
	add("runner.checkpoint.ms_per_point", "ms")
	add("experiments.aggregate.share", "share")
	add("experiments.pool.scaling_2w", "ratio")

	// online-onl1 -> online.arrivals_per_s
	add("taskgen.stream.us_per_set", "us")
	add("partition.start.us", "us")
	for _, v := range onlineVariants {
		add("partition.admit."+v.Label()+".ns", "ns")
		add("partition.release."+v.Label()+".ns", "ns")
	}
	add("partition.summarize.ns", "ns")
	for _, v := range onlineVariants {
		add("partition.admit_ratio."+v.Label(), "ratio")
	}
	add("online.events_per_replication", "count")

	// serve-admit -> serve.healthy.*, serve.overload.*
	add("serve.decode.us", "us")
	add("mc.hash.us", "us")
	add("serve.analyze.us", "us")
	add("serve.screen.us", "us")
	add("serve.encode.us", "us")
	add("serve.queue_wait.us", "us")
	add("serve.healthy.p99_ms", "ms")
	add("serve.cache.hit_ratio", "ratio")
	add("serve.cache.hit_p50_us", "us")
	add("serve.cache.miss_p50_us", "us")
	add("serve.overload.goodput_rps", "1/s")
	add("serve.overload.failed_share", "share")
	add("serve.overload.degraded_share", "share")
	add("serve.overload.shed_share", "share")
	add("serve.overload.partial_share", "share")
	add("serve.generator.max_late_ms", "ms")
	return out
}

// schemeNames are the five paper schemes in request order.
func schemeNames() []string {
	out := make([]string, len(partition.Schemes))
	for i, s := range partition.Schemes {
		out[i] = s.String()
	}
	return out
}

// validName reports whether a workload or metric name is well formed:
// a letter or digit, then at most 63 letters, digits, '_', '.' or '-'.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i, c := range name {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || !strings.ContainsRune("_.-", c)) {
			return false
		}
	}
	return true
}

// metrics collects one run's reported values by name.
type metrics map[string]float64

// report renders the values of specs in the output schema, failing if
// a metric was not measured.
func (m metrics) report(specs []metricSpec) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	var missing []string
	for _, s := range specs {
		v, ok := m[s.Name]
		if !ok {
			missing = append(missing, s.Name)
			continue
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
